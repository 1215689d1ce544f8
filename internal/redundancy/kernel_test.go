package redundancy

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// gfMatMulRef is the byte-wise kernel the packed-table one replaced — a
// log lookup, a zero test and an exp lookup per byte per coefficient —
// kept as the oracle: out = mat · shardsIn over shardLen-byte shards.
func gfMatMulRef(mat [][]byte, shardsIn [][]byte, out [][]byte, shardLen int) {
	for r := range mat {
		dst := out[r]
		for i := 0; i < shardLen; i++ {
			dst[i] = 0
		}
		for c, coef := range mat[r] {
			if coef == 0 {
				continue
			}
			src := shardsIn[c]
			if coef == 1 {
				for i := 0; i < shardLen; i++ {
					dst[i] ^= src[i]
				}
				continue
			}
			logC := int(gfLog[coef])
			for i := 0; i < shardLen; i++ {
				if src[i] != 0 {
					dst[i] ^= gfExp[logC+int(gfLog[src[i]])]
				}
			}
		}
	}
}

// padTo returns a copy of s zero-extended, or cut, to n bytes: what the
// kernel must behave as if it had been given.
func padTo(s []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, s)
	return out
}

// TestKernelMatchesBytewiseOracle drives the packed-table kernel over
// seeded random matrices and shapes — odd and even row counts, every
// column count across the four-column block and its remainder, zero and
// one coefficients, lengths around the loop edges, ragged sources and
// sources longer than n — and compares every output byte with the
// oracle's over explicitly padded copies. Sources must come back
// unwritten and destinations overwritten whatever they held.
func TestKernelMatchesBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 8))
	const guard = 3
	for _, n := range []int{0, 1, 7, 511, 512, 513, 4096 + 3} {
		for rows := 1; rows <= 17; rows++ {
			for cols := 1; cols <= 11; cols++ {
				mat := make([][]byte, rows)
				for r := range mat {
					mat[r] = randBytes(rng, cols)
					for c := range mat[r] {
						// A third of the coefficients are the old special cases.
						switch rng.IntN(6) {
						case 0:
							mat[r][c] = 0
						case 1:
							mat[r][c] = 1
						}
					}
				}
				src := make([][]byte, cols)
				padded := make([][]byte, cols)
				for c := range src {
					length := n
					switch rng.IntN(4) {
					case 0: // ragged: anywhere from empty to full
						length = rng.IntN(n + 1)
					case 1: // longer than the shard length
						length = n + 1 + rng.IntN(9)
					}
					src[c] = randBytes(rng, length)
					padded[c] = padTo(src[c], n)
				}
				before := make([][]byte, cols)
				for c := range src {
					before[c] = bytes.Clone(src[c])
				}
				dst := make([][]byte, rows)
				want := make([][]byte, rows)
				for r := range dst {
					dst[r] = bytes.Repeat([]byte{0xA5}, n+guard)
					want[r] = make([]byte, n)
				}
				gfMatMulRef(mat, padded, want, n)
				gfMatMul(gfTables(mat), src, dst, n)
				for r := range dst {
					if !bytes.Equal(dst[r][:n], want[r]) {
						t.Fatalf("n=%d %d×%d: row %d differs from the oracle", n, rows, cols, r)
					}
					if !bytes.Equal(dst[r][n:], bytes.Repeat([]byte{0xA5}, guard)) {
						t.Fatalf("n=%d %d×%d: row %d written past n", n, rows, cols, r)
					}
				}
				for c := range src {
					if !bytes.Equal(src[c], before[c]) {
						t.Fatalf("n=%d %d×%d: source %d was written", n, rows, cols, c)
					}
				}
			}
		}
	}
}

// TestEveryErasurePatternRoundTripsRagged: for each geometry, encode
// ragged (unpadded) members with the data path's encodeInto, then lose
// every set of at most m shards in turn and fill them back from ragged
// survivors. Each rebuilt shard must equal the padded original, and no
// survivor may be written.
func TestEveryErasurePatternRoundTripsRagged(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	for _, s := range []Scheme{
		{Kind: RS, K: 2, M: 2},
		{Kind: RS, K: 4, M: 2},
		{Kind: RS, K: 6, M: 3},
		{Kind: RS, K: 10, M: 4},
		{Kind: XOR, K: 4, M: 1},
	} {
		c, err := NewCodec(s)
		if err != nil {
			t.Fatal(err)
		}
		const n = 67
		total := s.K + s.M
		orig := make([][]byte, total)   // as stored: ragged data, full parity
		padded := make([][]byte, total) // as the codec must see them
		for i := 0; i < s.K; i++ {
			orig[i] = randBytes(rng, rng.IntN(n+1))
		}
		orig[rng.IntN(s.K)] = randBytes(rng, n) // one member sets the shard length
		for j := s.K; j < total; j++ {
			orig[j] = bytes.Repeat([]byte{0xEE}, n) // encodeInto must overwrite
		}
		c.encodeInto(orig[:s.K], orig[s.K:])
		for i := range orig {
			padded[i] = padTo(orig[i], n)
		}
		// The ragged parity is the parity of the padded members.
		want, err := c.Encode(padded[:s.K])
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range want {
			if !bytes.Equal(orig[s.K+j], p) {
				t.Fatalf("%v: ragged parity %d differs from Encode over padded copies", s, j)
			}
		}

		patterns := 0
		for mask := 0; mask < 1<<total; mask++ {
			lost := 0
			for i := 0; i < total; i++ {
				lost += mask >> i & 1
			}
			if lost == 0 || lost > s.M {
				continue
			}
			patterns++
			shards := make([][]byte, total)
			for i := range shards {
				if mask>>i&1 == 0 {
					shards[i] = bytes.Clone(orig[i])
				}
			}
			if err := c.fill(shards, n); err != nil {
				t.Fatalf("%v mask %b: %v", s, mask, err)
			}
			for i := range shards {
				if mask>>i&1 == 1 {
					if !bytes.Equal(shards[i], padded[i]) {
						t.Fatalf("%v mask %b: shard %d rebuilt wrong", s, mask, i)
					}
				} else if !bytes.Equal(shards[i], orig[i]) {
					t.Fatalf("%v mask %b: survivor %d was written or resized", s, mask, i)
				}
			}
		}
		if patterns == 0 {
			t.Fatalf("%v: no erasure pattern tried", s)
		}
		// One loss too many fails loudly.
		shards := make([][]byte, total)
		for i := s.M + 1; i < total; i++ {
			shards[i] = orig[i]
		}
		if err := c.fill(shards, n); err == nil {
			t.Fatalf("%v: %d holes accepted", s, s.M+1)
		}
	}
}

// BenchmarkRSKernel is the codec rung under BenchmarkEncodeLineRS4x2:
// RS 4+2 over random 512 KB shards through the public Codec API, so the
// same file measures any kernel. MB/s is data bytes in (the k shards
// read). short256B rebuilds two data shards of 256 B, where building the
// decode tables is the whole cost.
func BenchmarkRSKernel(b *testing.B) {
	c, err := NewCodec(Scheme{Kind: RS, K: 4, M: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		shardLen int
		lose     int // data shards to rebuild; 0 benchmarks Encode
	}{
		{"encode4+2", 512 << 10, 0},
		{"rebuild2of6", 512 << 10, 2},
		{"rebuild1of6", 512 << 10, 1},
		{"short256B", 256, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(bc.shardLen)))
			data := randShards(rng, 4, bc.shardLen)
			parity, err := c.Encode(data)
			if err != nil {
				b.Fatal(err)
			}
			all := append(append([][]byte(nil), data...), parity...)
			work := make([][]byte, len(all))
			b.SetBytes(int64(4 * bc.shardLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.lose == 0 {
					if _, err := c.Encode(data); err != nil {
						b.Fatal(err)
					}
					continue
				}
				copy(work, all)
				for h := 0; h < bc.lose; h++ {
					work[h] = nil
				}
				if err := c.Reconstruct(work); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if bc.lose > 0 {
				for h := 0; h < bc.lose; h++ {
					if !bytes.Equal(work[h], data[h]) {
						b.Fatalf("shard %d rebuilt wrong", h)
					}
				}
			}
		})
	}
}
