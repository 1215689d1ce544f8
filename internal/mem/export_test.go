package mem

import "fmt"

// summaryMismatch checks r's bitmap layout — wp, then its summary, then
// (backed only) written, one allocation — and the summary invariant:
// bit i of summary word s is set iff wp[64·s+i] != 0, no bit past wp's
// last word is set, and a one-word bitmap has no summary. It returns ""
// when both hold, else what does not.
func summaryMismatch(r *Region) string {
	n := uint64(len(r.wp))
	ns := uint64(0)
	if n > 1 {
		ns = (n + 63) / 64
	}
	want := n + ns
	if !r.space.Phantom() {
		want += n
	}
	if sum := r.summary(); uint64(len(sum)) != ns || uint64(cap(r.wp)) != want {
		return fmt.Sprintf("%d-word bitmap: summary of %d words, capacity %d, want %d and %d", n, len(sum), cap(r.wp), ns, want)
	}
	sum := r.summary()
	for i := uint64(0); i < ns*64; i++ {
		set := sum[i/64]>>(i%64)&1 == 1
		if held := i < n && r.wp[i] != 0; set != held {
			return fmt.Sprintf("summary bit %d is %v, but word %d of the %d-word bitmap holds protected pages: %v", i, set, i, n, held)
		}
	}
	return ""
}
