package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Integrity envelope: every segment persisted through an IntegrityStore
// is framed with a versioned header carrying the payload length and a
// CRC-32C, so torn writes and at-rest bit rot surface as a typed
// ErrCorrupt on Get instead of propagating garbage into a restore.
//
// Layout (little-endian):
//
//	offset  size  field
//	0       4     magic "ICSE" (Incremental Checkpoint Sealed Envelope)
//	4       4     version (1)
//	8       8     payload length
//	16      4     CRC-32C (Castagnoli) of the payload
//	20      n     payload
const (
	envelopeMagic   = "ICSE"
	envelopeVersion = 1
	envelopeHeader  = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal frames data in an integrity envelope.
func Seal(data []byte) []byte {
	out := make([]byte, envelopeHeader+len(data))
	copy(out, envelopeMagic)
	le := binary.LittleEndian
	le.PutUint32(out[4:8], envelopeVersion)
	le.PutUint64(out[8:16], uint64(len(data)))
	le.PutUint32(out[16:20], crc32.Checksum(data, castagnoli))
	copy(out[envelopeHeader:], data)
	return out
}

// Open verifies an envelope produced by Seal and returns the payload.
// Any structural mismatch — short frame, bad magic, unknown version,
// length mismatch (a torn write), checksum mismatch (bit rot) — reports
// ErrCorrupt with the reason wrapped in.
func Open(frame []byte) ([]byte, error) {
	if len(frame) < envelopeHeader {
		return nil, fmt.Errorf("%w: frame %d bytes, header needs %d", ErrCorrupt, len(frame), envelopeHeader)
	}
	if string(frame[:4]) != envelopeMagic {
		return nil, fmt.Errorf("%w: bad envelope magic %q", ErrCorrupt, frame[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(frame[4:8]); v != envelopeVersion {
		return nil, fmt.Errorf("%w: unsupported envelope version %d", ErrCorrupt, v)
	}
	n := le.Uint64(frame[8:16])
	payload := frame[envelopeHeader:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("%w: torn frame: %d payload bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != le.Uint32(frame[16:20]) {
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
// size the sink holds, minus one envelope header per key — so stacking
// an IntegrityStore does not change what Size means to callers.
func (s *IntegrityStore) Size() (uint64, error) {
	n, err := s.inner.Size()
	if err != nil {
		return 0, err
	}
	keys, err := s.inner.Keys()
	if err != nil {
		return 0, err
	}
	if overhead := uint64(len(keys)) * envelopeHeader; n >= overhead {
		n -= overhead
	}
	return n, nil
}

// CorruptReads returns the number of Gets that failed verification.
func (s *IntegrityStore) CorruptReads() uint64 { return s.corruptReads }
