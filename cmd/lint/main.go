// Command lint is the repo's determinism-contract multichecker. It
// loads every matched package with the stdlib-only analysis framework
// and runs six project-specific analyzers:
//
//	detlint     no wall-clock time or ambient entropy in internal/ and cmd/
//	maporder    no map-iteration order leaking into slices, writers, channels
//	errwrap     sentinel errors compared with errors.Is and wrapped with %w
//	seedplumb   exported internal/ functions take seeds, never bake them in
//	ckptset     committed .ckptspec protection specs match the classification
//	            computed from kernel source
//	deadexport  no exported internal/ name that no program (cmd/, examples/,
//	            benchmark/) can reach, no exported field nothing reachable sets
//
// Usage:
//
//	lint [-list] [-json] [-write-specs] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit
// status is 1 if any diagnostic is reported. With -json, diagnostics
// are emitted as a JSON array (one object per finding) for CI
// artifact upload. With -write-specs, the checker instead regenerates
// the .ckptspec file of every matched package that declares protection
// regions — the committed specs are build products of this flag, and
// CI fails if regenerating them changes anything. Suppress a finding
// with a trailing or preceding comment:
//
//	//lint:ignore detlint this demo deliberately reads the wall clock
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ckptset"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/detlint"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/seedplumb"
)

// checkers binds each analyzer to the slice of the module it governs.
// detlint and errwrap guard the simulator and its tools; seedplumb is
// about internal/ API shape; maporder applies to every non-test
// package, examples included — a nondeterministic example teaches the
// wrong lesson. ckptset self-gates on packages that declare protection
// roles, so applying it broadly costs nothing outside the kernels.
// deadexport judges internal/ only: cmd/ and examples/ are the roots.
var checkers = []struct {
	analyzer *analysis.Analyzer
	applies  func(relPath string) bool
}{
	{detlint.Analyzer, inInternalOrCmd},
	{maporder.Analyzer, func(string) bool { return true }},
	{errwrap.Analyzer, inInternalOrCmd},
	{seedplumb.Analyzer, inInternal},
	{ckptset.Analyzer, inInternalOrCmd},
	{deadexport.Analyzer, inInternal},
}

func inInternal(rel string) bool { return strings.HasPrefix(rel, "internal/") }

func inInternalOrCmd(rel string) bool {
	return strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
}

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array")
	writeSpecs := flag.Bool("write-specs", false, "regenerate .ckptspec files instead of linting")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lint [-list] [-json] [-write-specs] [packages]\n\npackages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, c := range checkers {
			fmt.Printf("%-10s %s\n", c.analyzer.Name, c.analyzer.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	m, err := load(".", patterns)
	if err != nil {
		fail(err)
	}
	if *writeSpecs {
		files := m.specFiles()
		for _, path := range sortedKeys(files) {
			if err := os.WriteFile(path, []byte(files[path]), 0o644); err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
		return
	}
	diags, err := m.lint()
	if err != nil {
		fail(err)
	}
	if *asJSON {
		err = writeJSON(os.Stdout, diags)
	} else {
		writeText(os.Stdout, diags)
	}
	if err != nil {
		fail(err)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
}

// loaded is one load of the packages matched by a set of patterns: the
// type-checking every mode shares, done once, so the tests can run the
// real gate in-process over one load of the module.
type loaded struct {
	modPath string
	pkgs    []*analysis.Package
}

// load resolves patterns against the module enclosing dir and parses and
// type-checks every matched package.
func load(dir string, patterns []string) (*loaded, error) {
	modDir, modPath, err := analysis.FindModule(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := analysis.NewLoader(modDir, modPath).Load(patterns...)
	if err != nil {
		return nil, err
	}
	return &loaded{modPath: modPath, pkgs: pkgs}, nil
}

// lint runs every checker over the packages it governs and returns the
// findings.
func (m *loaded) lint() ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, pkg := range m.pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, m.modPath), "/")
		var active []*analysis.Analyzer
		for _, c := range checkers {
			if c.applies(rel) {
				active = append(active, c.analyzer)
			}
		}
		diags, err := analysis.RunPackage(pkg, active)
		if err != nil {
			return all, err
		}
		all = append(all, diags...)
	}
	return all, nil
}

// specFiles computes the protection-region spec of every loaded package
// that declares roles and returns the file contents keyed by the absolute
// .ckptspec path — without writing anything, so tests and the drift gate
// can compare against the committed files.
func (m *loaded) specFiles() map[string]string {
	files := make(map[string]string)
	for _, pkg := range m.pkgs {
		spec := ckptset.ComputeSpec(pkg)
		if spec == nil {
			continue
		}
		path := filepath.Join(pkg.Dir, pkg.Types.Name()+".ckptspec")
		files[path] = string(spec.Encode())
	}
	return files
}

// writeText prints one diagnostic per line.
func writeText(w io.Writer, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}

// A Finding is the JSON shape of one diagnostic: flat, stable field
// names, ready for CI artifact tooling.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// writeJSON is writeText in machine-readable form: a JSON array of
// findings (always an array, [] when clean).
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, Finding{
			File:    d.Position.Filename,
			Line:    d.Position.Line,
			Col:     d.Position.Column,
			Check:   d.Category,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
