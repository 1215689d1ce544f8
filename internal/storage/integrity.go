package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Integrity envelope: every segment persisted through an IntegrityStore
// is framed with a versioned trailer carrying the payload length and a
// CRC-32C, so torn writes and at-rest bit rot surface as a typed
// ErrCorrupt on Get instead of propagating garbage into a restore. The
// trailer follows the payload, so a writer that reserves SealRoom spare
// bytes lets the envelope be sealed where the payload already lies.
//
// Layout (little-endian), n = payload length:
//
//	offset  size  field
//	0       n     payload
//	n       4     magic "ICSE" (Incremental Checkpoint Sealed Envelope)
//	n+4     4     version (2; version 1 put a header first)
//	n+8     8     payload length
//	n+16    4     CRC-32C (Castagnoli) of the payload
const (
	envelopeMagic   = "ICSE"
	envelopeVersion = 2
)

// SealRoom is the envelope's size: the spare capacity past a payload's
// length that lets IntegrityStore.PutOwned seal a given-away buffer in
// place instead of copying it into a fresh frame.
const SealRoom = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// trailer returns the envelope that follows payload.
func trailer(payload []byte) (t [SealRoom]byte) {
	copy(t[:], envelopeMagic)
	le := binary.LittleEndian
	le.PutUint32(t[4:8], envelopeVersion)
	le.PutUint64(t[8:16], uint64(len(payload)))
	le.PutUint32(t[16:20], crc32.Checksum(payload, castagnoli))
	return t
}

// Seal frames a copy of data in an integrity envelope.
func Seal(data []byte) []byte {
	t := trailer(data)
	return append(append(make([]byte, 0, len(data)+SealRoom), data...), t[:]...)
}

// sealInPlace frames data in the SealRoom bytes past its length, which
// the caller owns. The trailer is written only if those bytes do not
// hold it already — a sibling replica sealed the same frozen buffer
// first — so a frame another store keeps is never written twice.
func sealInPlace(data []byte) []byte {
	n := len(data)
	frame := data[: n+SealRoom : n+SealRoom]
	if t := trailer(data); !bytes.Equal(frame[n:], t[:]) {
		copy(frame[n:], t[:])
	}
	return frame
}

// Open verifies an envelope produced by Seal and returns the payload,
// capacity-clipped so an append cannot write into the trailer. Any
// structural mismatch — short frame, bad magic, unknown version, length
// mismatch (a torn write), checksum mismatch (bit rot) — reports
// ErrCorrupt with the reason wrapped in.
func Open(frame []byte) ([]byte, error) {
	if len(frame) < SealRoom {
		return nil, fmt.Errorf("%w: frame %d bytes, trailer needs %d", ErrCorrupt, len(frame), SealRoom)
	}
	n := len(frame) - SealRoom
	t := frame[n:]
	if string(t[:4]) != envelopeMagic {
		return nil, fmt.Errorf("%w: bad envelope magic %q", ErrCorrupt, t[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(t[4:8]); v != envelopeVersion {
		return nil, fmt.Errorf("%w: unsupported envelope version %d", ErrCorrupt, v)
	}
	if want := le.Uint64(t[8:16]); uint64(n) != want {
		return nil, fmt.Errorf("%w: torn frame: %d payload bytes, trailer says %d", ErrCorrupt, n, want)
	}
	payload := frame[:n:n]
	if sum := crc32.Checksum(payload, castagnoli); sum != le.Uint32(t[16:20]) {
		return nil, fmt.Errorf("%w: CRC-32C mismatch", ErrCorrupt)
	}
	return payload, nil
}

// IntegrityStore wraps a Store, sealing every value on Put and verifying
// it on Get. Corruption detected on Get is reported as ErrCorrupt; the
// Stats counter records how many reads failed verification.
type IntegrityStore struct {
	inner Store

	corruptReads uint64
}

// NewIntegrityStore wraps inner with integrity envelopes.
func NewIntegrityStore(inner Store) *IntegrityStore {
	return &IntegrityStore{inner: inner}
}

// Put implements Store. The sealed frame is fresh and referenced by
// nothing else, so the backing store may keep it without copying.
func (s *IntegrityStore) Put(key string, data []byte) error {
	return PutOwned(s.inner, key, Seal(data))
}

// PutOwned implements OwnedPutter. A buffer with SealRoom spare bytes is
// sealed in place and given on, so every replica that shares it keeps
// the same frame; a shorter one is sealed into a fresh frame.
func (s *IntegrityStore) PutOwned(key string, data []byte) error {
	if cap(data)-len(data) < SealRoom {
		return s.Put(key, data)
	}
	return PutOwned(s.inner, key, sealInPlace(data))
}

// Get implements Store, verifying the envelope before returning: the
// result is the payload inside the frame inner lent.
func (s *IntegrityStore) Get(key string) ([]byte, error) {
	frame, err := s.inner.Get(key)
	if err != nil {
		return nil, err
	}
	payload, err := Open(frame)
	if err != nil {
		s.corruptReads++
		return nil, fmt.Errorf("key %q: %w", key, err)
	}
	return payload, nil
}

// Delete implements Store.
func (s *IntegrityStore) Delete(key string) error { return s.inner.Delete(key) }

// Keys implements Store.
func (s *IntegrityStore) Keys() ([]string, error) { return s.inner.Keys() }

// Size implements Store. It reports logical payload bytes — the framed
// size the sink holds, minus one envelope per key — so stacking an
// IntegrityStore does not change what Size means to callers.
func (s *IntegrityStore) Size() (uint64, error) {
	n, err := s.inner.Size()
	if err != nil {
		return 0, err
	}
	keys, err := s.inner.Keys()
	if err != nil {
		return 0, err
	}
	if overhead := uint64(len(keys)) * SealRoom; n >= overhead {
		n -= overhead
	}
	return n, nil
}

// CorruptReads returns the number of Gets that failed verification.
func (s *IntegrityStore) CorruptReads() uint64 { return s.corruptReads }
