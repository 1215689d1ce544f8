// Package deadexport enforces "ship only what something runs": an
// exported function, method, constant, variable or type that no
// non-test code of the module references is API surface only tests
// keep alive — every refactor must port it and nothing would notice
// its absence. Delete it, or unexport it if its own package's tests
// still want it.
//
// The check is whole-program: it indexes every non-test package once
// (Pass.Module) and answers each package from the index. A reference
// from inside the declaration itself (recursion) does not count. Two
// kinds of use are invisible to the type-checked index and are granted
// by rule: a method whose receiver satisfies some interface through it
// (error, fmt.Stringer, storage.Store, ...) is called through that
// interface, and the frozen benchmark/ directory is a user although it
// is a module of its own — its non-test files load with the rest (the
// loader's ./... does not stop at a nested go.mod), and every
// identifier its test files mention counts as used, by name.
package deadexport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the deadexport check.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc: "flag exported functions, methods, constants, variables and " +
		"types that no non-test code references — delete them, or " +
		"unexport what only the package's own tests use",
	Run: run,
}

// frozenUserDirs are module-relative directories whose test files count
// as users, by name: benchmark/ is a nested module no PR may edit, so
// what `go test -C benchmark` compiles against must keep its shape.
var frozenUserDirs = []string{"benchmark"}

// index is the module-wide answer to "who uses what".
type index struct {
	used       map[types.Object]bool     // referenced from outside its own declaration
	mentioned  map[string]bool           // identifier names in frozenUserDirs' test files
	interfaces map[*types.Interface]bool // every interface a method might be called through
}

func run(pass *analysis.Pass) (any, error) {
	mod, err := pass.Module()
	if err != nil {
		return nil, err
	}
	fact, err := mod.Fact(pass.Analyzer, buildIndex)
	if err != nil {
		return nil, err
	}
	idx := fact.(*index)
	check := func(id *ast.Ident, kind string) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || !id.IsExported() || idx.used[obj] || idx.mentioned[id.Name] {
			return
		}
		if fn, ok := obj.(*types.Func); ok && idx.viaInterface(fn) {
			return
		}
		pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test code; delete it, or unexport it if only this package's tests use it", kind, id.Name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				check(d.Name, kind)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil, nil
}

func buildIndex(mod *analysis.Module) (any, error) {
	idx := &index{
		used:       make(map[types.Object]bool),
		mentioned:  make(map[string]bool),
		interfaces: map[*types.Interface]bool{errorType: true},
	}
	seenScope := make(map[*types.Package]bool)
	addScope := func(p *types.Package) {
		if seenScope[p] {
			return
		}
		seenScope[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				idx.addInterface(tn.Type())
			}
		}
	}
	for _, pkg := range mod.Packages {
		// Named interfaces of the package and of everything it imports
		// (fmt.Stringer, sort.Interface, ...), plus the anonymous ones
		// it writes in assertions and parameter lists.
		addScope(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			addScope(imp)
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				idx.addInterface(tv.Type)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				// self is the object a top-level func declares: its
				// own body calling it keeps nothing alive.
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(pkg.Info.Uses[id]); obj != nil && obj != self {
							idx.used[obj] = true
						}
					}
					return true
				})
			}
		}
	}
	for _, rel := range frozenUserDirs {
		if err := idx.mention(filepath.Join(mod.Dir, rel)); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// origin maps an instantiated generic function or field back to its
// declaration, which is what Defs records.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (idx *index) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		idx.interfaces[it] = true
	}
}

// errorsHooks are the methods package errors calls on an error through
// unnamed interfaces (interface{ Unwrap() error } and friends), which no
// package scope lists.
var errorsHooks = map[string]bool{"Unwrap": true, "Is": true, "As": true}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// viaInterface reports whether fn is a method through which its
// receiver type satisfies some known interface.
func (idx *index) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	if errorsHooks[fn.Name()] && (types.Implements(t, errorType) || types.Implements(ptr, errorType)) {
		return true
	}
	for it := range idx.interfaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// mention records every identifier in the test files of dir, without
// type-checking them. A missing dir mentions nothing.
func (idx *index) mention(dir string) error {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idx.mentioned[id.Name] = true
			}
			return true
		})
	}
	return nil
}
