// Package redundancy implements the L2 tier of a multi-level checkpoint
// hierarchy: erasure-coded partner redundancy across ranks. Checkpoint
// segments from k ranks form a parity group; m parity shards, computed by
// an erasure codec (XOR for m=1, Reed-Solomon for general k+m), are
// framed and placed on partner ranks' local stores so that any m
// simultaneous member losses can be rebuilt from survivors without
// touching the global (L3) store. A failure-domain map drives placement:
// no two shards of one group — data or parity — share a domain, so a
// whole-domain crash costs each group at most one shard.
//
// The hierarchy composes with the rest of the system through
// storage.Store: RankStore gives each checkpointer a write-through
// L1(+L3) store, and RecoveryView presents the tiered L1 → L2-rebuild →
// L3 read path to the existing VerifyChain/RestoreAll machinery.
package redundancy

import (
	"crypto/subtle"
	"fmt"
)

// SchemeKind selects the redundancy codec family.
type SchemeKind uint8

const (
	// None disables L2: checkpoints live on L1 and (periodically) L3 only.
	None SchemeKind = iota
	// XOR is single-parity partner redundancy: one parity shard per
	// group, tolerating one lost shard (the FTI L2 scheme).
	XOR
	// RS is systematic Reed-Solomon k+m over GF(2^8): m parity shards
	// per group of k, tolerating any m lost shards.
	RS
)

func (k SchemeKind) String() string {
	switch k {
	case None:
		return "none"
	case XOR:
		return "xor"
	case RS:
		return "rs"
	}
	return fmt.Sprintf("SchemeKind(%d)", uint8(k))
}

// Scheme names a redundancy configuration: the codec family plus the
// parity-group geometry (K data shards protected by M parity shards).
type Scheme struct {
	Kind SchemeKind
	// K is the number of data shards (group members). Ignored for None.
	K int
	// M is the number of parity shards. XOR requires M == 1.
	M int
}

func (s Scheme) String() string {
	switch s.Kind {
	case None:
		return "none"
	case XOR:
		return fmt.Sprintf("xor(%d+1)", s.K)
	default:
		return fmt.Sprintf("rs(%d+%d)", s.K, s.M)
	}
}

// Validate checks the geometry against codec and frame limits.
func (s Scheme) Validate() error {
	switch s.Kind {
	case None:
		return nil
	case XOR:
		if s.K < 1 {
			return fmt.Errorf("redundancy: xor needs k >= 1, got k=%d", s.K)
		}
		if s.M != 1 {
			return fmt.Errorf("redundancy: xor carries exactly one parity shard, got m=%d", s.M)
		}
	case RS:
		if s.K < 1 || s.M < 1 {
			return fmt.Errorf("redundancy: rs needs k >= 1 and m >= 1, got k=%d m=%d", s.K, s.M)
		}
	default:
		return fmt.Errorf("redundancy: unknown scheme kind %d", uint8(s.Kind))
	}
	// A parity frame carries k and m in one byte each and caps k+m at
	// 255, the shard count Reed-Solomon over GF(2^8) supports too.
	if s.K+s.M > 255 {
		return fmt.Errorf("redundancy: a parity group holds k+m <= 255 shards, got %d", s.K+s.M)
	}
	return nil
}

// Codec computes parity shards over equal-length data shards and
// reconstructs missing shards from survivors.
type Codec interface {
	// Name identifies the codec in reports.
	Name() string
	// DataShards returns k.
	DataShards() int
	// ParityShards returns m.
	ParityShards() int
	// Encode computes the m parity shards for k equal-length data
	// shards. The returned slices are freshly allocated.
	Encode(data [][]byte) ([][]byte, error)
	// Reconstruct fills in missing shards in place. shards has length
	// k+m: indices [0,k) are data shards, [k,k+m) parity; nil entries
	// are missing. At most m entries may be nil, and all present
	// entries must have equal length. On success every entry is
	// non-nil.
	Reconstruct(shards [][]byte) error

	// encodeInto and fill are the forms the data path runs; Encode and
	// Reconstruct wrap them with the equal-length check and, for Encode,
	// the allocation. Both only read the shards they are given, and both
	// zero-extend: a data shard shorter than the shard length counts as
	// padded with zeros and one longer is read up to it, so callers pass
	// borrowed, unpadded segments.

	// encodeInto overwrites the m equal-length buffers of parity with
	// the parity of the k data shards; the shard length is theirs.
	encodeInto(data, parity [][]byte)
	// fill replaces every nil entry of shards (length k+m, parity
	// entries n bytes) with a freshly allocated n-byte reconstruction.
	fill(shards [][]byte, n int) error
}

// encode is Codec.Encode for either codec.
func encode(c Codec, data [][]byte) ([][]byte, error) {
	if len(data) != c.DataShards() {
		return nil, fmt.Errorf("redundancy: %s encode got %d shards, want %d", c.Name(), len(data), c.DataShards())
	}
	n, missing, err := checkShardLengths(data)
	if err != nil {
		return nil, err
	}
	if missing > 0 {
		return nil, fmt.Errorf("redundancy: %s encode requires all %d data shards", c.Name(), c.DataShards())
	}
	parity := make([][]byte, c.ParityShards())
	for i := range parity {
		parity[i] = make([]byte, n)
	}
	c.encodeInto(data, parity)
	return parity, nil
}

// reconstruct is Codec.Reconstruct for either codec.
func reconstruct(c Codec, shards [][]byte) error {
	if want := c.DataShards() + c.ParityShards(); len(shards) != want {
		return fmt.Errorf("redundancy: %s reconstruct got %d shards, want %d", c.Name(), len(shards), want)
	}
	n, _, err := checkShardLengths(shards)
	if err != nil {
		return err
	}
	return c.fill(shards, n)
}

// NewCodec builds the codec for a scheme. None has no codec.
func NewCodec(s Scheme) (Codec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case XOR:
		return &xorCodec{k: s.K}, nil
	case RS:
		return newRSCodec(s.K, s.M)
	}
	return nil, fmt.Errorf("redundancy: scheme %v has no codec", s.Kind)
}

// checkShardLengths verifies all non-nil shards share one length and
// counts the nil (missing) entries.
func checkShardLengths(shards [][]byte) (shardLen, missing int, err error) {
	shardLen = -1
	for i, s := range shards {
		if s == nil {
			missing++
			continue
		}
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return 0, 0, fmt.Errorf("redundancy: shard %d has %d bytes, want %d", i, len(s), shardLen)
		}
	}
	if shardLen == -1 {
		return 0, 0, fmt.Errorf("redundancy: no surviving shards to reconstruct from")
	}
	return shardLen, missing, nil
}

// xorCodec is single-parity: parity = XOR of all data shards. Any one
// missing shard (data or parity) is the XOR of the others.
type xorCodec struct{ k int }

func (c *xorCodec) Name() string      { return fmt.Sprintf("xor(%d+1)", c.k) }
func (c *xorCodec) DataShards() int   { return c.k }
func (c *xorCodec) ParityShards() int { return 1 }

func (c *xorCodec) Encode(data [][]byte) ([][]byte, error) { return encode(c, data) }
func (c *xorCodec) Reconstruct(shards [][]byte) error      { return reconstruct(c, shards) }

func (c *xorCodec) encodeInto(data, parity [][]byte) { xorShards(parity[0], data) }

func (c *xorCodec) fill(shards [][]byte, n int) error {
	hole, missing := -1, 0
	for i, s := range shards {
		if s == nil {
			hole = i
			missing++
		}
	}
	if missing > 1 {
		return fmt.Errorf("redundancy: xor tolerates 1 lost shard, %d missing", missing)
	}
	if missing == 1 {
		rebuilt := make([]byte, n)
		xorShards(rebuilt, shards) // the nil hole XORs nothing in
		shards[hole] = rebuilt
	}
	return nil
}

// xorShards overwrites dst with the XOR of src, each shard zero-extended
// (or cut) to dst's length.
func xorShards(dst []byte, src [][]byte) {
	clear(dst[copy(dst, src[0]):])
	for _, s := range src[1:] {
		subtle.XORBytes(dst, dst, s[:min(len(s), len(dst))])
	}
}
