package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package: the unit analyzers run
// over. Only non-test files are loaded — the determinism contract
// applies to simulator code, and tests are free to use wall-clock
// timeouts or ad-hoc comparisons.
type Package struct {
	Path  string // import path ("repro/internal/des")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // for Pass.Module
}

// A Module is the whole-program view of one Loader: every non-test
// package under the module root, type-checked once and shared by every
// Pass of the run. It is the hook a check needs when "is this used?"
// cannot be answered from one package (deadexport).
type Module struct {
	Dir      string     // module root
	Packages []*Package // path-sorted

	facts map[*Analyzer]any
}

// Fact returns what build computed the first time analyzer a asked on
// this module, so a whole-program index is built once per run rather
// than once per package.
func (m *Module) Fact(a *Analyzer, build func(*Module) (any, error)) (any, error) {
	if f, ok := m.facts[a]; ok {
		return f, nil
	}
	f, err := build(m)
	if err != nil {
		return nil, err
	}
	m.facts[a] = f
	return f, nil
}

// A Loader parses and type-checks packages of a single module without
// invoking the go tool: imports within the module are resolved
// recursively from source by the loader itself, and everything else
// (the standard library) is delegated to go/importer's source
// importer. The zero dependency cost is the point — the linter must
// never be the thing that drags a module requirement into go.mod.
type Loader struct {
	ModDir  string // module root (directory holding go.mod)
	ModPath string // module path from go.mod

	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*Package
	module *Module
}

// NewLoader returns a Loader for the module rooted at modDir with
// module path modPath.
func NewLoader(modDir, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModDir:  modDir,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (modDir, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// Import implements types.Importer. Module-internal paths load
// recursively from source; "unsafe" maps to types.Unsafe; everything
// else goes to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.cache[path]; ok {
		return p.Types, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.load(filepath.Join(l.ModDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load expands the given patterns ("./...", "./internal/...", or plain
// directories relative to the module root) and returns the matched
// packages in deterministic (path-sorted) order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, rel := range dirs {
		p, err := l.LoadDir(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Module loads every package of the module ("./...") and returns the
// shared whole-program view.
func (l *Loader) Module() (*Module, error) {
	if l.module == nil {
		pkgs, err := l.Load("./...")
		if err != nil {
			return nil, err
		}
		l.module = &Module{Dir: l.ModDir, Packages: pkgs, facts: make(map[*Analyzer]any)}
	}
	return l.module, nil
}

// LoadDir loads the package in the directory rel (relative to the
// module root; "." is the module root itself).
func (l *Loader) LoadDir(rel string) (*Package, error) {
	rel = filepath.ToSlash(filepath.Clean(rel))
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + rel
	}
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	return l.load(filepath.Join(l.ModDir, filepath.FromSlash(rel)), path)
}

// Expand resolves "..."-style patterns to the sorted set of module
// directories (relative to the module root) that contain at least one
// non-test Go file. testdata, vendor, hidden, and underscore-prefixed
// directories are skipped, matching go-tool convention.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	set := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			root = filepath.Clean(strings.TrimPrefix(root, "./"))
			absRoot := filepath.Join(l.ModDir, filepath.FromSlash(root))
			err := filepath.WalkDir(absRoot, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != absRoot && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return fs.SkipDir
				}
				ok, err := hasGoFiles(p)
				if err != nil {
					return err
				}
				if ok {
					rel, err := filepath.Rel(l.ModDir, p)
					if err != nil {
						return err
					}
					set[filepath.ToSlash(rel)] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		rel := filepath.Clean(strings.TrimPrefix(pat, "./"))
		ok, err := hasGoFiles(filepath.Join(l.ModDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("analysis: no non-test Go files in %s", rel)
		}
		set[rel] = true
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// load parses and type-checks the package in dir under import path
// path, memoizing the result so diamond imports type-check once.
func (l *Loader) load(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: load %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.cache[path] = p
	return p, nil
}
