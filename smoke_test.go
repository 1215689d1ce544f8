package repro

// DESIGN.md §3 against the tree: every internal/ package has a row whose
// key types exist, and every program and example is listed.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if prog := "`cmd/" + d.Name() + "`"; !strings.Contains(section, prog) {
			t.Errorf("DESIGN.md §3: %s is not listed", prog)
		}
	}
	// Every example is listed.
	f, err := parser.ParseFile(token.NewFileSet(), "example_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example_") {
			if name := "`" + fn.Name.Name + "`"; !strings.Contains(section, name) {
				t.Errorf("DESIGN.md §3: %s is not listed", name)
			}
		}
	}
}
