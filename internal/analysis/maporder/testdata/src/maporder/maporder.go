// Package maporder is golden-test input for the map-iteration-order
// analyzer.
package maporder

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func appendNoSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside map iteration`
	}
	return out
}

// appendThenSort is the repo's canonical pattern (MirrorStore.Keys):
// collect in map order, then impose a deterministic order.
func appendThenSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func appendThenSliceSort(m map[uint64]bool) []uint64 {
	var seqs []uint64
	for s := range m {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

func appendSortedBeforeOnly(m map[string]int) []string {
	var out []string
	sort.Strings(out) // a sort *before* the loop proves nothing
	for k := range m {
		out = append(out, k) // want `append to out inside map iteration`
	}
	return out
}

func fprintInLoop(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside map iteration`
	}
}

func printInLoop(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `fmt\.Println inside map iteration`
	}
}

func builderInLoop(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `WriteString on an io\.Writer inside map iteration`
	}
	return b.String()
}

func sendInLoop(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside map iteration`
	}
}

// sliceRangeFine: iteration over slices is deterministic, so ordered
// output is fine.
func sliceRangeFine(xs []string, w io.Writer, ch chan string) []string {
	var out []string
	for _, x := range xs {
		fmt.Fprintln(w, x)
		ch <- x
		out = append(out, x)
	}
	return out
}

// mapWritesFine: mutating maps or scalars inside map iteration carries
// no ordering — only ordered sinks are flagged.
func mapWritesFine(m map[string]int) int {
	sum := 0
	inverse := make(map[int]string)
	for k, v := range m {
		sum += v
		inverse[v] = k
	}
	return sum
}

func suppressedProbe(m map[string]int, ch chan string) {
	for k := range m {
		//lint:ignore maporder single-element map in this protocol step
		ch <- k
	}
}

type segment struct{ pages []int }

// closureAppend is the checkpoint-capture shape: the append hides in a
// local closure, and the map range only calls it.
func closureAppend(dirty map[int][]int) *segment {
	seg := &segment{}
	capture := func(page int) {
		seg.pages = append(seg.pages, page)
	}
	for _, pages := range dirty {
		for _, p := range pages {
			capture(p) // want `call to closure capture: append to pages inside map iteration`
		}
	}
	return seg
}

func closureSend(m map[string]int, ch chan string) {
	emit := func(k string) { ch <- k }
	for k := range m {
		emit(k) // want `call to closure emit: channel send inside map iteration`
	}
}

func closureViaClosure(w io.Writer, m map[string]int) {
	line := func(k string) { fmt.Fprintln(w, k) }
	both := func(k string) { line(k) }
	for k := range m {
		both(k) // want `call to closure both: call to closure line: fmt\.Fprintln inside map iteration`
	}
}

// closureAppendThenSort: the collect-then-sort pattern holds through a
// closure too.
func closureAppendThenSort(m map[string]int) []string {
	var out []string
	add := func(k string) { out = append(out, k) }
	for k := range m {
		add(k)
	}
	sort.Strings(out)
	return out
}

// closureLocalSlice: a slice declared inside the closure is rebuilt on
// every call; nothing ordered escapes through it.
func closureLocalSlice(m map[string][]int) int {
	total := 0
	sum := func(xs []int) int {
		var evens []int
		for _, x := range xs {
			if x%2 == 0 {
				evens = append(evens, x)
			}
		}
		return len(evens)
	}
	for _, xs := range m {
		total += sum(xs)
	}
	return total
}

// closureLocalStruct: the same through a field of a closure-local value.
func closureLocalStruct(m map[string][]int) int {
	total := 0
	count := func(xs []int) int {
		var s segment
		for _, x := range xs {
			s.pages = append(s.pages, x)
		}
		return len(s.pages)
	}
	for _, xs := range m {
		total += count(xs)
	}
	return total
}

// closureOutsideLoop: calling the closure from slice iteration is fine.
func closureOutsideLoop(keys []string) []string {
	var out []string
	add := func(k string) { out = append(out, k) }
	for _, k := range keys {
		add(k)
	}
	return out
}
