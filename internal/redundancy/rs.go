package redundancy

import (
	"fmt"
)

// Systematic Reed-Solomon over GF(2^8), polynomial 0x11d (the field
// every production erasure coder uses — Plank's tutorial lineage). The
// generator matrix is a (k+m)×k Vandermonde matrix transformed so its
// top k×k block is the identity: encoding leaves data shards unchanged
// and computes m parity shards; reconstruction inverts the k×k submatrix
// of surviving rows and re-multiplies to recover what was lost.

// gfExp/gfLog are the exponential and logarithm tables of GF(2^8) with
// generator 2. gfExp is doubled so products of two logs index without a
// mod-255 reduction.
var gfExp [510]byte
var gfLog [256]byte

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 510; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("redundancy: GF(2^8) inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// gfBlock is the number of source columns the fused loop reads per pass.
const gfBlock = 4

// gfTable multiplies a block of gfBlock source columns into a pair of
// output rows: entry [c][s] packs mat[r][c]·s in its low byte and
// mat[r+1][c]·s in its high byte, so one load multiplies a source byte
// for both rows. A slot whose column does not exist is all zero.
type gfTable [gfBlock][256]uint16

// gfTables builds mat's packed tables: tabs[p][b] serves output rows 2p
// and 2p+1 (an odd last row leaves the high bytes zero) at columns
// gfBlock·b onwards. Multiplication is linear over XOR, so each slot takes
// 16 gfMuls — the two coefficients times the eight bit values — and 255
// XORs.
func gfTables(mat [][]byte) [][]gfTable {
	cols := len(mat[0])
	tabs := make([][]gfTable, (len(mat)+1)/2)
	for p := range tabs {
		tabs[p] = make([]gfTable, (cols+gfBlock-1)/gfBlock)
		for c := 0; c < cols; c++ {
			lo, hi := mat[2*p][c], byte(0)
			if 2*p+1 < len(mat) {
				hi = mat[2*p+1][c]
			}
			t := &tabs[p][c/gfBlock][c%gfBlock]
			for bit := 1; bit < 256; bit <<= 1 {
				base := uint16(gfMul(lo, byte(bit))) | uint16(gfMul(hi, byte(bit)))<<8
				for s := 0; s < bit; s++ {
					t[bit+s] = t[s] ^ base
				}
			}
		}
	}
	return tabs
}

// gfMatMul computes dst = mat · src over n byte positions, mat given as
// its packed tables: dst[r][:n] is overwritten for every row r, whatever
// it held. A source shorter than n is zero-extended and one longer is
// read up to n, so callers pass unpadded shards; sources are only read.
func gfMatMul(tabs [][]gfTable, src, dst [][]byte, n int) {
	for p, blocks := range tabs {
		d0 := dst[2*p][:n]
		// An odd last row doubles as its own partner: the high bytes of
		// its tables are zero and the fused loop writes d1 before d0, so
		// the extra store is overwritten and the extra XOR adds nothing.
		d1 := d0
		if 2*p+1 < len(dst) {
			d1 = dst[2*p+1][:n]
		}
		for b := range blocks {
			gfMulBlock(&blocks[b], src[gfBlock*b:min(gfBlock*b+gfBlock, len(src))], d0, d1, b == 0)
		}
	}
}

// gfMulBlock multiplies one block of at most gfBlock columns into the
// row pair d0/d1, storing when store is set and XORing otherwise. Ragged
// sources split the positions into stretches, each ending where the
// shortest column still running does. A slot without a running column —
// one that has ended, or that a narrow last block never had — reads a
// running column through a zero table: that is the zero extension.
func gfMulBlock(t *gfTable, src [][]byte, d0, d1 []byte, store bool) {
	var ragged gfTable
	for lo := 0; lo < len(d0); {
		hi, running := len(d0), -1
		for c, s := range src {
			if len(s) > lo {
				hi = min(hi, len(s))
				running = c
			}
		}
		if running < 0 {
			if store {
				clear(d0[lo:])
				clear(d1[lo:])
			}
			return
		}
		var s [gfBlock][]byte
		bt := t
		for c := range s {
			if c < len(src) && len(src[c]) > lo {
				s[c] = src[c][lo:hi]
				continue
			}
			s[c] = src[running][lo:hi]
			if c < len(src) { // ended: the slot's own table is not zero
				if bt == t {
					ragged, bt = *t, &ragged
				}
				bt[c] = [256]uint16{}
			}
		}
		gfMulFused(bt, s[0], s[1], s[2], s[3], d0[lo:hi], d1[lo:hi], store)
		lo = hi
	}
}

// gfMulFused is the one multiply loop: a byte from each of four sources,
// four table loads XORed in registers, one direct store per output row —
// two positions per turn when storing, which is where the bytes go. All
// six slices have one length.
func gfMulFused(t *gfTable, s0, s1, s2, s3, d0, d1 []byte, store bool) {
	n := len(s0)
	s1, s2, s3, d0, d1 = s1[:n], s2[:n], s3[:n], d0[:n], d1[:n]
	if !store {
		for i := range s0 {
			w := t.mul(s0[i], s1[i], s2[i], s3[i])
			d1[i] ^= byte(w >> 8)
			d0[i] ^= byte(w)
		}
		return
	}
	i := 0
	for ; i < n-1; i += 2 {
		w, v := t.mul(s0[i], s1[i], s2[i], s3[i]), t.mul(s0[i+1], s1[i+1], s2[i+1], s3[i+1])
		d1[i], d0[i] = byte(w>>8), byte(w)
		d1[i+1], d0[i+1] = byte(v>>8), byte(v)
	}
	if i < n {
		w := t.mul(s0[i], s1[i], s2[i], s3[i])
		d1[i], d0[i] = byte(w>>8), byte(w)
	}
}

func (t *gfTable) mul(a, b, c, d byte) uint32 {
	return uint32(t[0][a]) ^ uint32(t[1][b]) ^ uint32(t[2][c]) ^ uint32(t[3][d])
}

// gfInvertMatrix inverts a k×k matrix in place via Gauss-Jordan,
// returning the inverse. Fails only if the matrix is singular — which a
// Vandermonde-derived submatrix never is for distinct evaluation points.
func gfInvertMatrix(mat [][]byte) ([][]byte, error) {
	k := len(mat)
	work := make([][]byte, k)
	inv := make([][]byte, k)
	for i := range work {
		work[i] = append([]byte(nil), mat[i]...)
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("redundancy: singular decode matrix at column %d", col)
		}
		work[col], work[pivot] = work[pivot], work[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		scale := gfInv(work[col][col])
		for c := 0; c < k; c++ {
			work[col][c] = gfMul(work[col][c], scale)
			inv[col][c] = gfMul(inv[col][c], scale)
		}
		for r := 0; r < k; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			for c := 0; c < k; c++ {
				work[r][c] ^= gfMul(f, work[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return inv, nil
}

type rsCodec struct {
	k, m int
	// gen is the full (k+m)×k systematic generator matrix: identity on
	// top, parity coefficient rows below.
	gen [][]byte
	// parityTabs are the packed tables of gen's m parity rows; the
	// generator is fixed, so encoding never builds a table.
	parityTabs [][]gfTable
}

func newRSCodec(k, m int) (*rsCodec, error) {
	if k < 1 || m < 1 || k+m > 255 {
		return nil, fmt.Errorf("redundancy: rs(%d+%d) outside GF(2^8) limits", k, m)
	}
	// Vandermonde rows: row r = [r^0, r^1, ..., r^(k-1)] for r in
	// [0, k+m), with 0^0 = 1. Distinct evaluation points make every k×k
	// submatrix invertible once the top block is normalized to identity.
	vand := make([][]byte, k+m)
	for r := range vand {
		vand[r] = make([]byte, k)
		p := byte(1)
		for c := 0; c < k; c++ {
			vand[r][c] = p
			p = gfMul(p, byte(r))
		}
	}
	top := make([][]byte, k)
	for i := range top {
		top[i] = vand[i]
	}
	topInv, err := gfInvertMatrix(top)
	if err != nil {
		return nil, err
	}
	// gen = vand · topInv: top k rows become identity, so the code is
	// systematic; the bottom m rows are the parity coefficients.
	gen := make([][]byte, k+m)
	for r := range gen {
		gen[r] = make([]byte, k)
		for c := 0; c < k; c++ {
			var acc byte
			for i := 0; i < k; i++ {
				acc ^= gfMul(vand[r][i], topInv[i][c])
			}
			gen[r][c] = acc
		}
	}
	return &rsCodec{k: k, m: m, gen: gen, parityTabs: gfTables(gen[k:])}, nil
}

func (c *rsCodec) Name() string      { return fmt.Sprintf("rs(%d+%d)", c.k, c.m) }
func (c *rsCodec) DataShards() int   { return c.k }
func (c *rsCodec) ParityShards() int { return c.m }

func (c *rsCodec) Encode(data [][]byte) ([][]byte, error) { return encode(c, data) }
func (c *rsCodec) Reconstruct(shards [][]byte) error      { return reconstruct(c, shards) }

func (c *rsCodec) encodeInto(data, parity [][]byte) {
	gfMatMul(c.parityTabs, data, parity, len(parity[0]))
}

func (c *rsCodec) fill(shards [][]byte, n int) error {
	var dataHoles, parityHoles []int
	for i, s := range shards {
		switch {
		case s != nil:
		case i < c.k:
			dataHoles = append(dataHoles, i)
		default:
			parityHoles = append(parityHoles, i)
		}
	}
	if missing := len(dataHoles) + len(parityHoles); missing > c.m {
		return fmt.Errorf("redundancy: rs(%d+%d) tolerates %d lost shards, %d missing", c.k, c.m, c.m, missing)
	}
	if len(dataHoles) > 0 {
		// Pick k surviving rows of the generator matrix and invert: row d
		// of (dec · survivors) is data shard d. Only the holes are computed.
		subMat := make([][]byte, 0, c.k)
		survivors := make([][]byte, 0, c.k)
		for i := 0; len(subMat) < c.k; i++ {
			if shards[i] != nil {
				subMat = append(subMat, c.gen[i])
				survivors = append(survivors, shards[i])
			}
		}
		dec, err := gfInvertMatrix(subMat)
		if err != nil {
			return err
		}
		mulHoles(shards, dataHoles, dec, survivors, n)
	}
	// Re-encode missing parity shards from the (now complete) data.
	if len(parityHoles) > 0 {
		mulHoles(shards, parityHoles, c.gen, shards[:c.k], n)
	}
	return nil
}

// mulHoles allocates shards[h] for every hole h and computes it as row
// h of mat times src.
func mulHoles(shards [][]byte, holes []int, mat, src [][]byte, n int) {
	rows := make([][]byte, len(holes))
	out := make([][]byte, len(holes))
	for i, h := range holes {
		rows[i] = mat[h]
		shards[h] = make([]byte, n)
		out[i] = shards[h]
	}
	gfMatMul(gfTables(rows), src, out, n)
}
