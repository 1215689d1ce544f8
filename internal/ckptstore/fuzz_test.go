package ckptstore

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseServiceFrame drives DecodeFrame with arbitrary bytes. The
// invariants: no panic on any input, and the codec is canonical — every
// accepted frame re-encodes to exactly the bytes that were decoded, and
// a round trip through Encode/Decode is a fixed point. The parser takes
// a frame as header and payload (what a Client sends), so every accepted
// frame must also decode the same from its header and a separate copy of
// its payload, and must be rejected when the two disagree: a split one
// byte off the header's end, or a payload one byte longer or shorter
// than paylen.
func FuzzParseServiceFrame(f *testing.F) {
	seeds := []*Frame{
		{Kind: KindRequest, Op: OpPut, Client: 3, ID: 17, Key: "rank000/seg000001", Payload: []byte("pages")},
		{Kind: KindRequest, Op: OpGet, Key: "commit/seq000004"},
		{Kind: KindRequest, Op: OpKeys},
		{Kind: KindRequest, Op: OpSize},
		{Kind: KindResponse, Op: OpPut, Status: StatusOverload, Client: 3, ID: 17},
		{Kind: KindResponse, Op: OpKeys, Payload: encodeKeys([]string{"a", "b"})},
		{Kind: KindResponse, Op: OpSize, Payload: encodeSize(12345)},
	}
	for _, s := range seeds {
		f.Add(s.Encode())
	}
	f.Add([]byte("CKSF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if fr != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		// Canonical: accepted bytes re-encode identically.
		enc := fr.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, enc)
		}
		// And decoding the re-encode is a fixed point.
		fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical frame failed: %v", err)
		}
		if !bytes.Equal(fr2.Encode(), enc) {
			t.Fatal("second round trip diverged")
		}

		header, payload := splitFrame(data)
		if !bytes.Equal(fr.appendHeader(nil), header) {
			t.Fatalf("header encodes as %x, split gives %x", fr.appendHeader(nil), header)
		}
		var split Frame
		if err := split.decode(header, bytes.Clone(payload)); err != nil {
			t.Fatalf("split decode of an accepted frame: %v", err)
		}
		if split.Kind != fr.Kind || split.Op != fr.Op || split.Status != fr.Status || split.Client != fr.Client ||
			split.ID != fr.ID || split.Key != fr.Key || !bytes.Equal(split.Payload, fr.Payload) {
			t.Fatalf("split decode %+v, contiguous %+v", split, *fr)
		}
		n := len(header)
		for name, parts := range map[string][2][]byte{
			"header one byte short": {data[:n-1], data[n-1:]},
			"payload one byte long": {header, append(bytes.Clone(payload), 0)},
		} {
			if err := new(Frame).decode(parts[0], parts[1]); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
			}
		}
		if len(payload) > 0 {
			for name, parts := range map[string][2][]byte{
				"header one byte long":   {data[:n+1], data[n+1:]},
				"payload one byte short": {header, payload[:len(payload)-1]},
			} {
				if err := new(Frame).decode(parts[0], parts[1]); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
				}
			}
		}
	})
}
