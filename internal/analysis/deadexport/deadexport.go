// Package deadexport enforces "ship only what something runs": an
// exported function, method, constant, variable, type or struct field
// of internal/ that no shipped program can reach is API surface only
// tests keep alive — every refactor must port it and nothing would
// notice its absence. Delete it, or unexport it if its own package's
// tests still want it.
//
// The check is whole-program reachability: it indexes every non-test
// package once (Pass.Module) — for each top-level declaration, the
// objects it uses and the struct fields it sets — and marks live what
// the module's programs reach: every declaration of a package main,
// every init and blank declaration, and from there whatever a live
// declaration uses. A name only dead code refers to (its own methods'
// receivers, a dead caller, a helper of a dead caller) is dead. An
// exported field of a live struct that no live code ever sets — by
// composite literal, by assignment or ++/-- through any selector/index
// chain, or by having its address taken — is an option with one value:
// delete it together with the code it gates. A field's own default is
// not a setter: an else-less if whose condition compares x.F with its
// zero value and whose body only assigns x.F (or a prefix of it, such
// as x.Link for x.Link.Bandwidth) fills a value nobody chose, so a
// field only such fills write is flagged like one nothing writes.
//
// Two kinds of use are invisible to the type-checked index and are
// granted by rule: a method through which its live receiver type
// satisfies some interface (error, fmt.Stringer, storage.Store, ...) is
// called through that interface, and the frozen benchmark/ directory is
// a user although it is a module of its own — its non-test files load
// with the rest as one more package main (the loader's ./... does not
// stop at a nested go.mod), and every identifier its test files mention
// counts as used, by name.
package deadexport

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the deadexport check.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc: "flag exported functions, methods, constants, variables and " +
		"types no shipped program reaches, and exported struct fields " +
		"no reachable code sets — delete them, or unexport what only " +
		"the package's own tests use",
	Run: run,
}

// frozenUserDirs are module-relative directories whose test files count
// as users, by name: benchmark/ is a nested module no PR may edit, so
// what `go test -C benchmark` compiles against must keep its shape.
var frozenUserDirs = []string{"benchmark"}

// A decl is what one top-level declaration refers to.
type decl struct {
	uses []types.Object // every object an identifier in it resolves to
	sets []types.Object // struct fields it writes or takes the address of
}

// index is the module-wide answer to "what can a program reach".
type index struct {
	decls      map[types.Object]*decl
	live       map[types.Object]bool     // reachable declarations
	set        map[types.Object]bool     // fields a live declaration sets
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
	eachDecl(pass.Files, func(id *ast.Ident, node ast.Node, kind string) {
		obj := pass.TypesInfo.Defs[id]
		if kind == "method" && !idx.live[receiver(obj.(*types.Func))] {
			return // a dead receiver type is one finding, not one per method
		}
		if id.IsExported() && !idx.live[obj] && !idx.mentioned[id.Name] {
			pass.Reportf(id.Pos(), "exported %s %s is reachable from no program (cmd/, examples/, benchmark/); delete it, or unexport it if only this package's tests use it", kind, id.Name)
		}
		if spec, ok := node.(*ast.TypeSpec); ok && idx.live[obj] {
			idx.checkFields(pass, spec)
		}
	})
	return nil, nil
}

// eachDecl calls fn for every name the files declare at top level, with
// the declaring node (a FuncDecl, TypeSpec or ValueSpec) and its kind.
func eachDecl(files []*ast.File, fn func(id *ast.Ident, node ast.Node, kind string)) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					fn(d.Name, d, "function")
				} else {
					fn(d.Name, d, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						fn(s.Name, s, "type")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							fn(name, s, d.Tok.String())
						}
					}
				}
			}
		}
	}
}

// checkFields reports the exported fields of the live struct type spec
// declares that no live code sets.
func (idx *index) checkFields(pass *analysis.Pass, spec *ast.TypeSpec) {
	ast.Inspect(spec.Type, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				if id.IsExported() && !idx.set[pass.TypesInfo.Defs[id]] && !idx.mentioned[id.Name] {
					pass.Reportf(id.Pos(), "exported field %s.%s is set by no reachable non-test code: an option with one value; delete it and the code it gates", spec.Name.Name, id.Name)
				}
			}
		}
		return true
	})
}

func buildIndex(mod *analysis.Module) (any, error) {
	idx := &index{
		decls:      make(map[types.Object]*decl),
		live:       make(map[types.Object]bool),
		set:        make(map[types.Object]bool),
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
	var roots []types.Object
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
		eachDecl(pkg.Files, func(id *ast.Ident, node ast.Node, _ string) {
			obj := pkg.Info.Defs[id]
			idx.decls[obj] = newDecl(pkg.Info, node)
			// What runs without being called: a program's own
			// declarations, package initialisers, blank declarations.
			if pkg.Types.Name() == "main" || id.Name == "init" || id.Name == "_" {
				roots = append(roots, obj)
			}
		})
	}
	for _, obj := range roots {
		idx.reach(obj)
	}
	for _, rel := range frozenUserDirs {
		if err := idx.mention(filepath.Join(mod.Dir, rel)); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// newDecl records what the declaration node refers to and which struct
// fields it sets.
func newDecl(info *types.Info, node ast.Node) *decl {
	d := new(decl)
	fills := make(map[*ast.AssignStmt]bool)
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			for _, a := range defaultFill(info, n) {
				fills[a] = true
			}
		case *ast.Ident:
			if obj := origin(info.Uses[n]); obj != nil {
				d.uses = append(d.uses, obj)
			}
		case *ast.CompositeLit:
			// A struct literal sets the fields it names, or, written
			// positionally, every field.
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem() // the elided &T{...} of a []*T literal
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					d.sets = append(d.sets, origin(info.Uses[kv.Key.(*ast.Ident)]))
				} else {
					d.sets = append(d.sets, origin(st.Field(i)))
				}
			}
		case *ast.AssignStmt:
			if fills[n] {
				break // a default, not a setter; its right-hand side still uses
			}
			for _, lhs := range n.Lhs {
				d.setChain(info, lhs)
			}
		case *ast.IncDecStmt:
			d.setChain(info, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				d.setChain(info, n.X)
			}
		}
		return true
	})
	return d
}

// defaultFill returns the assignments of s when s is a default fill:
// no init and no else, a condition x.F == zero (or <= zero, either
// operand order), and a body of nothing but single assignments to x.F
// or a prefix of its selector chain. Anything else returns nil.
func defaultFill(info *types.Info, s *ast.IfStmt) []*ast.AssignStmt {
	cond, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || s.Init != nil || s.Else != nil || len(s.Body.List) == 0 {
		return nil
	}
	field := cond.X
	switch {
	case isZero(info, cond.Y) && (cond.Op == token.EQL || cond.Op == token.LEQ):
	case isZero(info, cond.X) && (cond.Op == token.EQL || cond.Op == token.GEQ):
		field = cond.Y
	default:
		return nil
	}
	var prefixes []string
	for e := ast.Unparen(field); ; {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		if v, ok := info.Uses[sel.Sel].(*types.Var); !ok || !v.IsField() {
			break
		}
		prefixes = append(prefixes, types.ExprString(sel))
		e = ast.Unparen(sel.X)
	}
	if len(prefixes) == 0 {
		return nil // not a field compare
	}
	var fills []*ast.AssignStmt
	for _, st := range s.Body.List {
		a, ok := st.(*ast.AssignStmt)
		if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || !slices.Contains(prefixes, types.ExprString(a.Lhs[0])) {
			return nil
		}
		fills = append(fills, a)
	}
	return fills
}

// isZero reports whether e is nil, an empty composite literal (T{}), or
// a constant equal to its type's zero value.
func isZero(info *types.Info, e ast.Expr) bool {
	if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
		return len(lit.Elts) == 0
	}
	tv := info.Types[e]
	if tv.IsNil() {
		return true
	}
	switch v := tv.Value; {
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	default:
		return constant.Sign(v) == 0
	}
}

// setChain records every field on the selector/index chain e writes
// through: x.A.B[i].C = v sets A, B and C.
func (d *decl) setChain(info *types.Info, e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				d.sets = append(d.sets, v.Origin())
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// reach marks obj live, and with it whatever its declaration uses and
// sets. A live type brings along the methods interfaces call it by.
func (idx *index) reach(obj types.Object) {
	if idx.live[obj] {
		return
	}
	idx.live[obj] = true
	if d := idx.decls[obj]; d != nil {
		for _, f := range d.sets {
			idx.set[f] = true
		}
		for _, use := range d.uses {
			idx.reach(use)
		}
	}
	if tn, ok := obj.(*types.TypeName); ok {
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); idx.viaInterface(named, m) {
					idx.reach(m)
				}
			}
		}
	}
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

// receiver returns the type name method fn is declared on.
func receiver(fn *types.Func) types.Object {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named).Origin().Obj()
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
// receiver type t satisfies some known interface.
func (idx *index) viaInterface(t types.Type, fn *types.Func) bool {
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
