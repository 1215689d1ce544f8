package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzOpenEnvelope throws arbitrary frames at the integrity envelope
// parser: valid frames round-trip, everything else must come back as an
// ErrCorrupt-wrapped typed error — never a panic, never a silent accept
// of a frame Seal could not have produced.
func FuzzOpenEnvelope(f *testing.F) {
	f.Add(Seal(nil))
	f.Add(Seal([]byte("hello")))
	f.Add(Seal(bytes.Repeat([]byte{0xEE}, 1024)))
	f.Add([]byte("ICSE"))
	f.Add([]byte{})
	// Version 1 frames (header first) are what an older build stored.
	for _, payload := range [][]byte{nil, []byte("hello"), bytes.Repeat([]byte{0xEE}, 1024)} {
		v1 := sealV1(payload)
		if _, err := Open(v1); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("version 1 frame of %d bytes: err = %v, want ErrCorrupt", len(payload), err)
		}
		f.Add(v1)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		payload, err := Open(frame)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection not typed ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted frames must be exactly what Seal(payload) builds.
		if !bytes.Equal(Seal(payload), frame) {
			t.Fatal("accepted frame is not a Seal image of its payload")
		}
	})
}

// sealV1 builds a version 1 envelope: magic, version, length and CRC-32C
// as a header ahead of the payload.
func sealV1(payload []byte) []byte {
	le := binary.LittleEndian
	out := append([]byte(envelopeMagic), 1, 0, 0, 0)
	out = le.AppendUint64(out, uint64(len(payload)))
	out = le.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// FuzzSealOpenRoundTrip pins the forward direction: every payload seals
// into a frame that opens back to the identical bytes.
func FuzzSealOpenRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("segment payload"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := Open(Seal(payload))
		if err != nil {
			t.Fatalf("own frame rejected: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("round trip mismatch")
		}
	})
}
