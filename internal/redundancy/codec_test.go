package redundancy

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func randShards(rng *rand.Rand, k, n int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = randBytes(rng, n)
	}
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.UintN(256))
	}
	return out
}

func TestSchemeValidate(t *testing.T) {
	good := []Scheme{
		{Kind: None},
		{Kind: XOR, K: 1, M: 1},
		{Kind: XOR, K: 7, M: 1},
		{Kind: RS, K: 2, M: 2},
		{Kind: XOR, K: 254, M: 1},
		{Kind: RS, K: 200, M: 55},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v rejected: %v", s, err)
		}
		// Every accepted geometry must frame its shards: a scheme the
		// frame refuses builds a hierarchy that fails every EncodeLine.
		if s.Kind == None {
			continue
		}
		f := &ParityFrame{K: s.K, M: s.M, Members: make([]MemberRef, s.K)}
		if _, err := EncodeParityFrame(f); err != nil {
			t.Errorf("%v accepted, but its parity frame is refused: %v", s, err)
		}
	}
	bad := []Scheme{
		{Kind: XOR, K: 0, M: 1},
		{Kind: XOR, K: 2, M: 2},
		{Kind: XOR, K: 255, M: 1},
		{Kind: RS, K: 0, M: 1},
		{Kind: RS, K: 1, M: 0},
		{Kind: RS, K: 200, M: 56},
		{Kind: SchemeKind(9)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
	if _, err := NewCodec(Scheme{Kind: None}); err == nil {
		t.Error("None yielded a codec")
	}
}

func TestXORCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	c, err := NewCodec(Scheme{Kind: XOR, K: 3, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 3, 64)
	parity, err := c.Encode(data)
	if err != nil || len(parity) != 1 {
		t.Fatalf("encode: %v, %d parity", err, len(parity))
	}
	// Any single hole — data or parity — reconstructs bit-exact.
	for hole := 0; hole < 4; hole++ {
		shards := make([][]byte, 4)
		for i := range data {
			shards[i] = append([]byte(nil), data[i]...)
		}
		shards[3] = append([]byte(nil), parity[0]...)
		want := append([]byte(nil), shards[hole]...)
		shards[hole] = nil
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("hole %d: %v", hole, err)
		}
		if !bytes.Equal(shards[hole], want) {
			t.Fatalf("hole %d rebuilt wrong", hole)
		}
	}
}

func TestXORCodecRejects(t *testing.T) {
	c, _ := NewCodec(Scheme{Kind: XOR, K: 2, M: 1})
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Error("short encode accepted")
	}
	if _, err := c.Encode([][]byte{{1}, {2, 3}}); err == nil {
		t.Error("ragged encode accepted")
	}
	if err := c.Reconstruct([][]byte{nil, nil, {1}}); err == nil {
		t.Error("two holes accepted")
	}
	if err := c.Reconstruct([][]byte{nil, nil, nil}); err == nil {
		t.Error("all holes accepted")
	}
	if err := c.Reconstruct([][]byte{{1}, {2}}); err == nil {
		t.Error("wrong shard count accepted")
	}
}

// Reed-Solomon must recover from ANY m lost shards. Exhaust every hole
// pair for k=3, m=2 — the property the A21 ablation's "m simultaneous
// rank losses" claim rests on.
func TestRSCodecAllHolePairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	c, err := NewCodec(Scheme{Kind: RS, K: 3, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 3, 97)
	parity, err := c.Encode(data)
	if err != nil || len(parity) != 2 {
		t.Fatalf("encode: %v, %d parity", err, len(parity))
	}
	full := append(append([][]byte{}, data...), parity...)
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			shards := make([][]byte, 5)
			for i, s := range full {
				shards[i] = append([]byte(nil), s...)
			}
			shards[a], shards[b] = nil, nil
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("holes (%d,%d): %v", a, b, err)
			}
			for i, s := range full {
				if !bytes.Equal(shards[i], s) {
					t.Fatalf("holes (%d,%d): shard %d rebuilt wrong", a, b, i)
				}
			}
		}
	}
	// m+1 holes must fail loudly, not fabricate data.
	shards := make([][]byte, 5)
	for i, s := range full {
		shards[i] = append([]byte(nil), s...)
	}
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("three holes accepted with m=2")
	}
}

func TestRSCodecDegenerateGeometries(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, s := range []Scheme{
		{Kind: RS, K: 1, M: 1},
		{Kind: RS, K: 1, M: 3},
		{Kind: RS, K: 8, M: 1},
		{Kind: RS, K: 10, M: 4},
	} {
		c, err := NewCodec(s)
		if err != nil {
			t.Fatal(err)
		}
		data := randShards(rng, s.K, 33)
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatalf("%v encode: %v", s, err)
		}
		full := append(append([][]byte{}, data...), parity...)
		shards := make([][]byte, len(full))
		for i, sh := range full {
			shards[i] = append([]byte(nil), sh...)
		}
		// Knock out the first m shards (mixes data and parity for k < m).
		for i := 0; i < s.M; i++ {
			shards[i] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("%v reconstruct: %v", s, err)
		}
		for i, sh := range full {
			if !bytes.Equal(shards[i], sh) {
				t.Fatalf("%v shard %d wrong", s, i)
			}
		}
	}
}
