// Package maporder flags map iterations whose bodies leak Go's
// randomized map ordering into observable output: appending to a slice
// that is never subsequently sorted, writing to an io.Writer, or
// sending on a channel. This is the classic way nondeterminism reaches
// the repo's figures and tables — the simulation is bit-exact, and
// then a `for k := range m { fmt.Fprintf(w, ...) }` shuffles the rows.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map bodies that append to a slice without a " +
		"subsequent sort, write to an io.Writer, or send on a channel — " +
		"map iteration order would leak into observable output",
	Run: run,
}

// fmtWriters are the fmt functions that emit text in call order.
var fmtWriters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writeMethods are method names that, on an io.Writer, emit bytes in
// call order.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// writerIface is io.Writer built from first principles so the analyzer
// does not depend on the target package importing io.
var writerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", errType)),
		false)
	i := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Write", sig),
	}, nil)
	i.Complete()
	return i
}()

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// sortCall records a deterministic reordering (sort.* / slices.Sort*)
// of some slice object at some position within a function body.
type sortCall struct {
	pos token.Pos
	obj types.Object
}

// checkFunc analyzes one function body. Nested function literals are
// skipped here; the outer Inspect visits them as functions in their
// own right.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var mapRanges []*ast.RangeStmt
	var sorts []sortCall
	// closures maps a local variable to the function literal bound to it
	// (capture := func(...) {...}), so a call to it from a map-range body
	// can be followed into the literal.
	closures := make(map[types.Object]*ast.FuncLit)
	analysis.WalkSameFunc(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					mapRanges = append(mapRanges, n)
				}
			}
		case *ast.CallExpr:
			if obj, ok := sortedSlice(pass.TypesInfo, n); ok {
				sorts = append(sorts, sortCall{n.Pos(), obj})
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if obj := analysis.RootObject(pass.TypesInfo, n.Lhs[i]); obj != nil {
					closures[obj] = lit
				}
			}
		}
		return true
	})
	for _, r := range mapRanges {
		c := &rangeCheck{pass: pass, r: r, sorts: sorts, closures: closures, entered: make(map[*ast.FuncLit]bool)}
		c.walk(r.Body, nil, func(pos token.Pos, msg string) { pass.Reportf(pos, "%s", msg) })
	}
}

// sortedSlice reports whether call deterministically orders a slice,
// and which object that slice is.
func sortedSlice(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	path, name, ok := analysis.CalleePkgFunc(info, call)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	isSort := path == "sort" || (path == "slices" && len(name) >= 4 && name[:4] == "Sort")
	if !isSort {
		return nil, false
	}
	obj := analysis.RootObject(info, call.Args[0])
	return obj, obj != nil
}

// rangeCheck looks for ordered effects reachable from one map-range body.
type rangeCheck struct {
	pass     *analysis.Pass
	r        *ast.RangeStmt
	sorts    []sortCall
	closures map[types.Object]*ast.FuncLit
	entered  map[*ast.FuncLit]bool // closures already followed: each is reported once, recursion ends
}

// walk reports the ordered effects of body, which runs once per map
// element. within is the function literal body belongs to, nil for the
// range body itself. Calls to local closures are followed into the
// literal and reported at the call — the loop is where the ordering
// leaks, and where a //lint:ignore belongs.
func (c *rangeCheck) walk(body ast.Node, within *ast.FuncLit, report func(token.Pos, string)) {
	analysis.WalkSameFunc(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside map iteration: delivery order depends on map iteration order; iterate over sorted keys instead")
		case *ast.CallExpr:
			if msg := writeCall(c.pass, n); msg != "" {
				report(n.Pos(), msg)
			}
			id, ok := n.Fun.(*ast.Ident)
			if !ok {
				break
			}
			if lit := c.closures[c.pass.TypesInfo.Uses[id]]; lit != nil && !c.entered[lit] {
				c.entered[lit] = true
				c.walk(lit.Body, lit, func(_ token.Pos, msg string) {
					report(n.Pos(), "call to closure "+id.Name+": "+msg)
				})
			}
		case *ast.AssignStmt:
			c.appends(n, within, report)
		}
		return true
	})
}

// writeCall describes the ordered output call produces, if any: fmt
// print functions and Write* methods on io.Writer implementations.
func writeCall(pass *analysis.Pass, call *ast.CallExpr) string {
	if path, name, ok := analysis.CalleePkgFunc(pass.TypesInfo, call); ok {
		if path == "fmt" && fmtWriters[name] {
			return "fmt." + name + " inside map iteration: output row order depends on map iteration order; iterate over sorted keys instead"
		}
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !writeMethods[sel.Sel.Name] {
		return ""
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return ""
	}
	if types.Implements(recv, writerIface) || types.Implements(types.NewPointer(recv), writerIface) {
		return sel.Sel.Name + " on an io.Writer inside map iteration: byte order depends on map iteration order; iterate over sorted keys instead"
	}
	return ""
}

// appends flags `x = append(x, ...)` unless some sort of x happens after
// the range statement in the same function. Inside a followed closure
// only captured slices count: one declared in the literal is rebuilt on
// every call and carries no order out of it.
func (c *rangeCheck) appends(as *ast.AssignStmt, within *ast.FuncLit, report func(token.Pos, string)) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		var target types.Object
		if i < len(as.Lhs) {
			target = analysis.RootObject(c.pass.TypesInfo, as.Lhs[i])
		}
		if target == nil {
			continue
		}
		if within != nil && declaredIn(c.pass.TypesInfo, as.Lhs[i], within) {
			continue
		}
		sorted := false
		for _, s := range c.sorts {
			if s.obj == target && s.pos > c.r.End() {
				sorted = true
				break
			}
		}
		if !sorted {
			report(call.Pos(), "append to "+target.Name()+" inside map iteration without a subsequent sort: element order depends on map iteration order")
		}
	}
}

// declaredIn reports whether the variable at the base of e (x in x,
// x.f.g, x[i], *x) is declared inside lit.
func declaredIn(info *types.Info, e ast.Expr, lit *ast.FuncLit) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := info.ObjectOf(x)
			return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
		default:
			return false
		}
	}
}
