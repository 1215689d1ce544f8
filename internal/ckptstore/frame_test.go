package ckptstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Kind: KindRequest, Op: OpPut, Client: 7, ID: 42, Key: "rank003/seg000009", Payload: []byte("segment bytes")},
		{Kind: KindRequest, Op: OpGet, Client: 0, ID: 1, Key: "commit/seq000001"},
		{Kind: KindRequest, Op: OpKeys, Client: 99, ID: 3},
		{Kind: KindResponse, Op: OpPut, Status: StatusOverload, Client: 7, ID: 42, Key: ""},
		{Kind: KindResponse, Op: OpSize, Status: StatusOK, Client: 1, ID: 2, Payload: encodeSize(1 << 30)},
	}
	for _, f := range frames {
		b := f.Encode()
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %s frame: %v", f.Op, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("round trip mismatch:\n put %+v\n got %+v", f, got)
		}
		// Canonical codec: re-encoding the decode reproduces the bytes.
		if !bytes.Equal(got.Encode(), b) {
			t.Fatalf("%s frame is not canonical", f.Op)
		}
	}
}

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	good := (&Frame{Kind: KindRequest, Op: OpPut, Client: 1, ID: 1, Key: "k", Payload: []byte("v")}).Encode()
	cases := map[string][]byte{
		"empty":            nil,
		"short":            good[:10],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"bad version":      mutate(good, 4, 9),
		"bad kind":         mutate(good, 5, 9),
		"bad op":           mutate(good, 6, 0),
		"bad status":       mutate(good, 7, 200),
		"status in req":    mutate(good, 7, uint8(StatusOverload)),
		"trailing bytes":   append(append([]byte(nil), good...), 0xFF),
		"truncated body":   good[:len(good)-1],
		"oversized keylen": mutate(good, 20, 0xFF),
		"version 1":        mutate(good, 4, 1),
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func mutate(b []byte, i int, v uint8) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestStatusPreservesTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		in        error
		status    Status
		transient bool
	}{
		{nil, StatusOK, false},
		{storage.ErrNotFound, StatusNotFound, false},
		{storage.ErrCorrupt, StatusCorrupt, false},
		{storage.ErrUnavailable, StatusUnavailable, false},
		{storage.ErrTransient, StatusTransient, true},
		{storage.ErrOverload, StatusOverload, true}, // overload beats its transient wrap
		{storage.ErrDeadlineExceeded, StatusDeadline, false},
	} {
		if got := statusOf(tc.in); got != tc.status {
			t.Errorf("statusOf(%v) = %d, want %d", tc.in, got, tc.status)
		}
		err := tc.status.Err(OpPut, "k")
		if (tc.in == nil) != (err == nil) {
			t.Fatalf("Status(%d).Err nil-ness mismatch", tc.status)
		}
		if err != nil {
			if storage.IsTransient(err) != tc.transient {
				t.Errorf("status %d: IsTransient = %v, want %v", tc.status, !tc.transient, tc.transient)
			}
			if tc.in != nil && !errors.Is(err, tc.in) {
				t.Errorf("status %d lost sentinel %v", tc.status, tc.in)
			}
		}
	}
}

// TestStatusErrMatchesFormatted: Status.Err's error reads and classifies
// as the fmt.Errorf it replaces, for every non-OK status, every op and a
// key %q must escape.
func TestStatusErrMatchesFormatted(t *testing.T) {
	sentinels := []error{storage.ErrNotFound, storage.ErrCorrupt, storage.ErrUnavailable, storage.ErrTransient, storage.ErrOverload, storage.ErrDeadlineExceeded}
	const key = "rank000/seg\"000001\"\n"
	for st := StatusNotFound; st <= StatusDeadline; st++ {
		for op := OpPut; op <= OpSize; op++ {
			err := st.Err(op, key)
			want := fmt.Errorf("ckptstore: %s %q: %w", op, key, sentinels[st-1])
			if err.Error() != want.Error() {
				t.Errorf("status %d, %s: text %q, want %q", st, op, err, want)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != errors.Is(want, s) {
					t.Errorf("status %d, %s: errors.Is(err, %v) = %v, want %v", st, op, s, errors.Is(err, s), errors.Is(want, s))
				}
			}
		}
	}
}

func TestKeysPayloadRoundTrip(t *testing.T) {
	for _, keys := range [][]string{{}, {"a"}, {"rank000/seg000001", "rank001/seg000001", "commit/seq000001"}} {
		got, err := decodeKeys(encodeKeys(keys))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) {
			t.Fatalf("got %d keys, want %d", len(got), len(keys))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("key %d: %q != %q", i, got[i], keys[i])
			}
		}
	}
	if _, err := decodeKeys([]byte{1, 0, 0, 0}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated key list: %v", err)
	}
	if _, err := decodeSize([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short size payload: %v", err)
	}
}

// TestDecodeFrameAliasesInput pins the decode half of the ownership
// contract: Payload is a capacity-clipped window onto the input, not a
// copy.
func TestDecodeFrameAliasesInput(t *testing.T) {
	wire := (&Frame{Kind: KindRequest, Op: OpPut, Client: 1, ID: 1, Key: "k", Payload: []byte("payload")}).Encode()
	f, err := DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if cap(f.Payload) != len(f.Payload) {
		t.Fatalf("cap(Payload) = %d, len = %d: an append could run past the frame", cap(f.Payload), len(f.Payload))
	}
	wire[len(wire)-1] = 'D'
	if string(f.Payload) != "payloaD" {
		t.Fatalf("Payload = %q after mutating the input: decode copied", f.Payload)
	}
	if f.Key != "k" {
		t.Fatalf("Key = %q", f.Key)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrame(wire); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 { // the Key string (a one-byte key may not even need that)
		t.Fatalf("DecodeFrame allocates %v/op, want <= 1", allocs)
	}
}

// TestAppendEncodeReusesBuffer: AppendEncode is Encode onto the end of
// dst, and a buffer that has grown once encodes without allocating.
func TestAppendEncodeReusesBuffer(t *testing.T) {
	f := &Frame{Kind: KindRequest, Op: OpPut, Client: 7, ID: 42, Key: "rank003/seg000009", Payload: bytes.Repeat([]byte{0xAB}, 4096)}
	want := f.Encode()
	got := f.AppendEncode([]byte("prefix"))
	if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
		t.Fatal("AppendEncode(dst) != dst + Encode()")
	}
	buf := f.AppendEncode(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = f.AppendEncode(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendEncode into a grown buffer allocates %v/op, want 0", allocs)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reused buffer holds different bytes")
	}
}

// TestClientRefusesOversizedFrame: a key the u16 length field cannot
// describe used to be encoded with a truncated length and bounce off the
// service as a transport ErrBadFrame. The client must refuse it before
// encoding, permanently, so a retrying wrapper gives up at once.
func TestClientRefusesOversizedFrame(t *testing.T) {
	svc, _, mems := newTestService(t, nil)
	c := svc.Client(1)
	longest := strings.Repeat("k", maxKeyLen)
	if err := c.Put(longest, []byte("v")); err != nil {
		t.Fatalf("a %d-byte key fits the format: %v", maxKeyLen, err)
	}
	if got, err := mems[0].Get(longest); err != nil || string(got) != "v" {
		t.Fatalf("longest key did not round-trip: %q, %v", got, err)
	}
	rs := storage.NewResilientStore(c, storage.RetryPolicy{MaxAttempts: 5, BaseDelay: 1, MaxDelay: 2, Seed: 1})
	tooLong := longest + "k"
	before := svc.Stats()
	for name, op := range map[string]func() error{
		"put":    func() error { return rs.Put(tooLong, []byte("v")) },
		"get":    func() error { _, err := rs.Get(tooLong); return err },
		"delete": func() error { return rs.Delete(tooLong) },
	} {
		err := op()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: err = %v, want ErrFrameTooLarge", name, err)
		}
		if errors.Is(err, ErrBadFrame) || storage.IsTransient(err) {
			t.Fatalf("%s: %v must be a permanent client-side refusal", name, err)
		}
	}
	if st := rs.Stats(); st.Retries != 0 {
		t.Fatalf("oversized request was retried %d times", st.Retries)
	}
	if after := svc.Stats(); after != before {
		t.Fatalf("oversized request reached the service:\n%+v\n%+v", before, after)
	}
	if strconv.IntSize == 64 {
		var fourGiB int64 = maxPayloadLen + 1
		if err := checkSize("k", int(fourGiB)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("4 GiB payload: err = %v, want ErrFrameTooLarge", err)
		}
		if err := checkSize("k", maxPayloadLen); err != nil {
			t.Fatalf("largest payload: %v", err)
		}
	}
}
