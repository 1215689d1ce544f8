package redundancy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// Parity-shard wire/storage frame. Every L2 shard placed on a partner
// rank's local store is wrapped in a canonical, fuzzable frame that
// records the parity-group geometry, which member segments the shard
// protects (rank, unpadded length, CRC-32C of the original bytes), and a
// CRC over the shard payload itself. The member CRCs let the rebuild
// path verify a reconstructed segment bit-for-bit before handing it to
// the restore machinery — a corrupt parity shard degrades the read to
// the next tier instead of producing a torn restore.
//
// Layout (big-endian):
//
//	magic   "CKPF" (4 bytes)
//	version u8
//	group   u32   parity-group id
//	seq     u64   checkpoint line the shard protects
//	shard   u8    shard index in [0, k+m): [0,k) data, [k,k+m) parity
//	k       u8    data shards per group
//	m       u8    parity shards per group
//	members k × { rank u32, origLen u32, crc u32 }
//	payload u32 length + bytes (padded shard)
//	crc     u32   CRC-32C of everything above
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadParityFrame reports a parity frame that does not parse: wrong
// magic, unknown version, truncated fields, inconsistent geometry, or
// trailing bytes. Parse failures wrap both this and storage.ErrCorrupt,
// so the tiered read path classifies them like any other corrupt read.
var ErrBadParityFrame = errors.New("redundancy: malformed parity frame")

const (
	parityMagic   = "CKPF"
	parityVersion = 1
	// parityFixedLen is the frame's length up to the member table.
	parityFixedLen = 4 + 1 + 4 + 8 + 1 + 1 + 1
)

// MemberRef describes one member segment a parity shard protects.
type MemberRef struct {
	// Rank owns the protected segment.
	Rank int
	// Length is the unpadded byte length of the original segment;
	// reconstruction truncates the padded rebuild back to it.
	Length uint32
	// CRC is the CRC-32C (Castagnoli) of the original segment bytes.
	CRC uint32
}

// ParityFrame is one framed L2 shard.
type ParityFrame struct {
	// Group is the parity-group id.
	Group uint32
	// Seq is the checkpoint line the shard belongs to.
	Seq uint64
	// Shard is the shard index: [0, K) are data shards, [K, K+M) parity.
	Shard int
	// K and M are the group geometry.
	K, M int
	// Members lists the protected segments, one per data shard, in
	// shard order.
	Members []MemberRef
	// Payload is the padded shard bytes.
	Payload []byte
}

// EncodeParityFrame serializes a frame in canonical form.
func EncodeParityFrame(f *ParityFrame) ([]byte, error) {
	buf, payload, err := beginParityFrame(f, len(f.Payload))
	if err != nil {
		return nil, err
	}
	copy(payload, f.Payload)
	finishParityFrame(buf)
	return buf, nil
}

// beginParityFrame allocates the exact-size frame of f around a payload
// of payloadLen bytes (f.Payload is not read) and writes everything
// before the payload. The caller fills the returned payload region — the
// codec encodes straight into it — and seals the frame with
// finishParityFrame.
func beginParityFrame(f *ParityFrame, payloadLen int) (frame, payload []byte, err error) {
	if f.K < 1 || f.K > 255 || f.M < 1 || f.M > 255 || f.K+f.M > 255 {
		return nil, nil, fmt.Errorf("redundancy: frame geometry k=%d m=%d out of range", f.K, f.M)
	}
	if f.Shard < 0 || f.Shard >= f.K+f.M {
		return nil, nil, fmt.Errorf("redundancy: shard index %d outside [0, %d)", f.Shard, f.K+f.M)
	}
	if len(f.Members) != f.K {
		return nil, nil, fmt.Errorf("redundancy: frame lists %d members, want k=%d", len(f.Members), f.K)
	}
	head := parityFixedLen + 12*f.K + 4
	frame = make([]byte, head+payloadLen+4)
	buf := append(frame[:0], parityMagic...)
	buf = append(buf, parityVersion)
	buf = binary.BigEndian.AppendUint32(buf, f.Group)
	buf = binary.BigEndian.AppendUint64(buf, f.Seq)
	buf = append(buf, byte(f.Shard), byte(f.K), byte(f.M))
	for _, m := range f.Members {
		if m.Rank < 0 || m.Rank > 1<<31-1 {
			return nil, nil, fmt.Errorf("redundancy: member rank %d out of range", m.Rank)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.Rank))
		buf = binary.BigEndian.AppendUint32(buf, m.Length)
		buf = binary.BigEndian.AppendUint32(buf, m.CRC)
	}
	binary.BigEndian.PutUint32(frame[len(buf):head], uint32(payloadLen))
	return frame, frame[head : head+payloadLen], nil
}

// finishParityFrame seals a frame begun by beginParityFrame once its
// payload region is filled: it writes the CRC trailer.
func finishParityFrame(frame []byte) {
	body := frame[:len(frame)-4]
	binary.BigEndian.PutUint32(frame[len(body):], crc32.Checksum(body, castagnoli))
}

// badFrame wraps a parse failure in both the frame error and the
// storage corruption class.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s: %w", ErrBadParityFrame, fmt.Sprintf(format, args...), storage.ErrCorrupt)
}

// ParseParityFrame decodes a canonical parity frame. It never panics on
// arbitrary input; any malformation — including a CRC mismatch — is
// reported as a wrapped storage.ErrCorrupt. The frame's Payload aliases
// data rather than copying it: when data is a store's Get result, Payload
// is read-only too.
func ParseParityFrame(data []byte) (*ParityFrame, error) {
	if len(data) < parityFixedLen+4+4 {
		return nil, badFrame("%d bytes, need at least %d", len(data), parityFixedLen+8)
	}
	if string(data[:4]) != parityMagic {
		return nil, badFrame("bad magic %q", data[:4])
	}
	if data[4] != parityVersion {
		return nil, badFrame("unknown version %d", data[4])
	}
	// CRC trailer covers everything before it; checking first keeps the
	// remaining parse free of corruption cases.
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(trailer); got != want {
		return nil, badFrame("frame crc %08x, want %08x", got, want)
	}
	f := &ParityFrame{
		Group: binary.BigEndian.Uint32(data[5:9]),
		Seq:   binary.BigEndian.Uint64(data[9:17]),
		Shard: int(data[17]),
		K:     int(data[18]),
		M:     int(data[19]),
	}
	if f.K < 1 || f.M < 1 || f.K+f.M > 255 {
		return nil, badFrame("geometry k=%d m=%d out of range", f.K, f.M)
	}
	if f.Shard >= f.K+f.M {
		return nil, badFrame("shard index %d outside [0, %d)", f.Shard, f.K+f.M)
	}
	off := parityFixedLen
	if len(body) < off+12*f.K+4 {
		return nil, badFrame("truncated member table")
	}
	f.Members = make([]MemberRef, f.K)
	for i := range f.Members {
		f.Members[i] = MemberRef{
			Rank:   int(binary.BigEndian.Uint32(data[off : off+4])),
			Length: binary.BigEndian.Uint32(data[off+4 : off+8]),
			CRC:    binary.BigEndian.Uint32(data[off+8 : off+12]),
		}
		off += 12
	}
	plen := int(binary.BigEndian.Uint32(data[off : off+4]))
	off += 4
	if len(body) != off+plen {
		return nil, badFrame("payload length %d does not match frame size", plen)
	}
	f.Payload = data[off : off+plen : off+plen]
	return f, nil
}

// SegmentCRC returns the CRC-32C of a stored segment's bytes — the
// integrity mark recorded per member in parity frames and re-checked
// after reconstruction.
func SegmentCRC(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
