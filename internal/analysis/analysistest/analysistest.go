// Package analysistest runs an analyzer over a golden package under
// testdata/src and checks its diagnostics against // want comments,
// mirroring golang.org/x/tools/go/analysis/analysistest with only the
// standard library.
//
// A want comment asserts diagnostics on its own line:
//
//	_ = time.Now() // want `time\.Now`
//
// and may close a comment that says something else first, such as a
// //lint:ignore directive expected to be reported as unused.
// The payload is one or more backquoted regular expressions; each must
// match exactly one diagnostic reported on that line, and every
// diagnostic must be claimed by a pattern. Suppression is exercised
// for real: the runner applies //lint:ignore filtering exactly as
// cmd/lint does, so a golden file can assert that a suppressed
// violation produces no diagnostic.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads testdata/src/<pkg> relative to the calling test's working
// directory, runs a over it, and reports any mismatch between the
// diagnostics and the // want comments via t.
//
//lint:ignore deadexport the package is test support: every analyzer's golden test calls it
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	// The testdata tree acts as its own tiny module so golden packages
	// could even import one another; stdlib imports go to the source
	// importer as usual.
	loader := analysis.NewLoader(src, "golden.test")
	p, err := loader.LoadDir(pkg)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", pkg, err)
	}
	diags, err := analysis.RunPackage(p, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	wants := collectWants(t, p)

	type key struct {
		file string
		line int
	}
	got := make(map[key][]analysis.Diagnostic)
	for _, d := range diags {
		k := key{d.Position.Filename, d.Position.Line}
		got[k] = append(got[k], d)
	}
	for _, w := range wants {
		k := key{w.file, w.line}
		ds := got[k]
		idx := -1
		for i, d := range ds {
			if w.re.MatchString(d.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s:%d: no diagnostic matching %q (got %s)", w.file, w.line, w.re, messages(ds))
			continue
		}
		got[k] = append(ds[:idx], ds[idx+1:]...)
	}
	for k, ds := range got {
		for _, d := range ds {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", k.file, k.line, d.Category, d.Message)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, p *analysis.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The expectation may trail other comment text, so a
				// //lint:ignore line can carry one about itself.
				i := strings.Index(c.Text, "// want `")
				if i < 0 {
					continue
				}
				rest := c.Text[i:]
				pos := p.Fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: // want comment without a backquoted pattern", pos)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern: %v", pos, err)
					}
					wants = append(wants, want{pos.Filename, pos.Line, re})
				}
			}
		}
	}
	return wants
}

func messages(ds []analysis.Diagnostic) string {
	if len(ds) == 0 {
		return "none"
	}
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%q", d.Message))
	}
	return strings.Join(parts, ", ")
}
