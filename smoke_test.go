package repro

// Build-and-run smoke tests for every runnable example: each is executed
// as a subprocess (the way a reader would run it) and its stdout is
// checked for the line that states its result — so a regression that
// breaks an example's build, crashes it, or silently flips its result to
// DIVERGED fails CI, not just the reader's first impression. The
// examples are also deadexport's roots (what they reach ships), which
// only means something if something runs them.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runExample executes `go run ./examples/<name>` and returns its stdout.
func runExample(t *testing.T, name string) string {
	t.Helper()
	cmd := exec.Command("go", "run", "./examples/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
	}
	return string(out)
}

func TestExampleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke tests compile and run subprocesses")
	}
	cases := []struct {
		example string
		verdict string
	}{
		{"burst_aligned", "checkpointing between bursts eliminates all"},
		{"chaos_replay", "replay is BIT-EXACT"},
		{"ckpt_service", "service is LOSSLESS"},
		{"custom_app", "8.8x disk headroom"},
		{"failure_recovery", "recovery is EXACT"},
		{"flaky_network", "bit-identical result"},
		{"hardened_storage", "bit-identical result"},
		{"quickstart", "incremental checkpointing is FEASIBLE"},
		{"rdma_drain", "drain replay is BIT-EXACT"},
		{"sage_sweep", "2x memory needs 1.57x bandwidth"},
		{"self_healing", "bit-identical result"},
	}
	// Every example is run: a new one joins the table or fails here.
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if i >= len(cases) || d.Name() != cases[i].example {
			t.Fatalf("examples/%s has no row (in directory order) in the smoke table", d.Name())
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.example, func(t *testing.T) {
			t.Parallel()
			out := runExample(t, tc.example)
			if !strings.Contains(out, tc.verdict) {
				t.Fatalf("%s output lacks %q:\n%s", tc.example, tc.verdict, out)
			}
			if strings.Contains(out, "DIVERG") {
				t.Fatalf("%s reports divergence:\n%s", tc.example, out)
			}
		})
	}
}

// declared returns the names declared at the top level of the package in
// dir (types, funcs, vars, consts; test files left out).
func declared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

// DESIGN.md §3 is the map a reader starts from, and it had rotted: a
// dozen "key types" that no longer existed, four of seven programs and
// five of eleven examples missing. It is checked against the tree now.
func TestDesignInventory(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "## 3. System inventory")
	section, _, _ = strings.Cut(section, "\n## 4.")
	row := regexp.MustCompile("(?m)^\\| `(internal/[a-z/]+)` \\|[^|]*\\|([^|]*)\\|$")
	name := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)`")
	rows := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		pkg := m[1]
		rows[pkg] = true
		decls := declared(t, pkg)
		keys := name.FindAllStringSubmatch(m[2], -1)
		if len(keys) == 0 {
			t.Errorf("DESIGN.md §3: row %s names no declaration", pkg)
		}
		for _, k := range keys {
			if !decls[k[1]] {
				t.Errorf("DESIGN.md §3: row %s names `%s`, which the package does not declare", pkg, k[1])
			}
		}
	}
	// Every package has a row.
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) > 0 && !rows[filepath.ToSlash(path)] {
			t.Errorf("DESIGN.md §3: package %s has no row", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every program is listed.
	for _, root := range []string{"cmd", "examples"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if prog := "`" + root + "/" + d.Name() + "`"; !strings.Contains(section, prog) {
				t.Errorf("DESIGN.md §3: %s is not listed", prog)
			}
		}
	}
}
