package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// goldenAll is `figures -fig all -ranks 8 -seed 7`. Its first 1074 lines
// are the bytes the pre-registry cmd/tables and cmd/figures printed; the
// rest are the artefacts that had no text form before (A1-A3, A7, A9).
// Regenerate it, after a deliberate output change, with
//
//	go run ./cmd/figures -fig all -ranks 8 > internal/experiments/testdata/golden/all-r8-s7.txt
const goldenAll = "testdata/golden/all-r8-s7.txt"

// TestGoldenAll pins every deterministic artefact's text, byte for byte.
// Its one pass, shards0, runs each artefact on the single unsharded engine.
func TestGoldenAll(t *testing.T) {
	want, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("shards0", func(t *testing.T) {
		t.Parallel()
		var got strings.Builder
		for _, a := range arts {
			res, err := a.Run(RunOpts{Ranks: 8, Seed: 7})
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			got.WriteString(res.Text())
		}
		if got.String() == string(want) {
			return
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s\n got: %q\nwant: %q", i+1, goldenAll, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), goldenAll, len(wl))
	})
}

func TestSelect(t *testing.T) {
	seen := map[string]string{"all": "the reserved name"}
	for _, a := range Artefacts {
		for _, n := range append([]string{a.Name}, a.Aliases...) {
			if prev, dup := seen[n]; dup {
				t.Errorf("name %q of %s already belongs to %s", n, a.Name, prev)
			}
			seen[n] = a.Name
			got, err := Select(n)
			if err != nil || len(got) != 1 || got[0].Name != a.Name {
				t.Errorf("Select(%q) = %v, %v; want %s", n, got, err, a.Name)
			}
		}
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Artefacts) {
		t.Errorf("all has %d artefacts of %d", len(all), len(Artefacts))
	}
	// An unknown name is an error that lists every valid one.
	_, err = Select("typo")
	if err == nil {
		t.Fatal("Select(typo) succeeded")
	}
	for _, n := range append(Names(), "all") {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error omits %q: %v", n, err)
		}
	}
}

// TestArtefactsRun regenerates every artefact at 4 ranks: each must
// produce titled, non-empty text. -short skips the multi-second ones.
func TestArtefactsRun(t *testing.T) {
	slow := map[string]bool{"fig2": true, "fig3": true, "fig5": true, "cluster": true}
	for _, a := range Artefacts {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && slow[a.Name] {
				t.Skip("slow artefact")
			}
			res, err := a.Run(RunOpts{Ranks: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Sections) == 0 {
				t.Fatal("no sections")
			}
			for _, s := range res.Sections {
				if s.Title == "" || strings.Count(s.Body, "\n") < 2 {
					t.Errorf("section %q: body %q", s.Title, s.Body)
				}
			}
			for _, m := range res.Metrics {
				if m.Name == "" {
					t.Errorf("unnamed metric %v", m)
				}
			}
		})
	}
}

// TestEveryExperimentIsAnArtefact parses the package: every exported
// function that returns (rows, error) must be referenced by exactly one
// entry of Artefacts, so no experiment is reachable only from a test or
// a one-off command. The run harness and the registry's own lookup are
// not experiments.
func TestEveryExperimentIsAnArtefact(t *testing.T) {
	notExperiments := map[string]bool{"RunOne": true, "RunMany": true, "Select": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]int{}
	var experiments []string
	for name, f := range pkgs["experiments"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				res := d.Type.Results
				if d.Recv == nil && d.Name.IsExported() && !notExperiments[d.Name.Name] && res != nil && len(res.List) == 2 {
					if id, ok := res.List[1].Type.(*ast.Ident); ok && id.Name == "error" {
						experiments = append(experiments, d.Name.Name)
					}
				}
			case *ast.GenDecl:
				if !strings.HasSuffix(name, "registry.go") {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						refs[id.Name]++
					}
					return true
				})
			}
		}
	}
	if len(experiments) < 25 {
		t.Fatalf("found only %d experiment functions: %v", len(experiments), experiments)
	}
	for _, fn := range experiments {
		if refs[fn] != 1 {
			t.Errorf("%s is referenced by %d artefacts, want exactly 1", fn, refs[fn])
		}
	}
}
