// Package seedplumb enforces seed plumbing at package boundaries: an
// exported function in internal/ must not build its own generator from
// constant literals, because then no caller — not the experiment
// harness, not a sweep over seeds, not a bisection of a divergent run
// — can vary the randomness. Constructors must accept a seed (or a
// ready *rand.Rand / rand.Source) and thread it down, the way
// chaos.Schedule.Compile and experiments.ServiceAblation do.
package seedplumb

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the seedplumb check.
var Analyzer = &analysis.Analyzer{
	Name: "seedplumb",
	Doc: "flag exported functions that seed their own generator from " +
		"constant literals instead of accepting a seed or *rand.Rand " +
		"parameter — callers would be unable to control reproducibility",
	Run: run,
}

// seeders are the math/rand(/v2) constructors that turn raw seed
// material into a generator.
var seeders = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": false,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if acceptsSeed(pass.TypesInfo, fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

// acceptsSeed reports whether fd gives its caller a randomness knob:
// a parameter of type *rand.Rand or rand.Source (either math/rand
// flavor), or an integer parameter whose name mentions "seed".
func acceptsSeed(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		switch t.String() {
		case "*math/rand.Rand", "*math/rand/v2.Rand",
			"math/rand.Source", "math/rand/v2.Source":
			return true
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			for _, name := range field.Names {
				if strings.Contains(strings.ToLower(name.Name), "seed") {
					return true
				}
			}
		}
	}
	return false
}

// checkBody flags seeder calls whose every argument is a compile-time
// constant. Seeding from a parameter, a config field, or any other
// runtime value is exactly what the contract wants, so those pass.
// Function literals are included: a constant-seeded closure inside an
// exported function is the same trap.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name, ok := analysis.CalleePkgFunc(pass.TypesInfo, call)
		if !ok || (path != "math/rand" && path != "math/rand/v2") || !seeders[name] {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		for _, arg := range call.Args {
			if !isConstant(pass.TypesInfo, arg) {
				return true
			}
		}
		pass.Reportf(call.Pos(), "exported %s seeds its generator from constant literals via %s.%s; accept a seed or *rand.Rand parameter so callers control reproducibility", fd.Name.Name, path, name)
		return true
	})
}

// isConstant reports whether e is a compile-time constant or a
// composite literal of constants (the [32]byte{...} shape NewChaCha8
// takes).
func isConstant(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		if !isConstant(info, el) {
			return false
		}
	}
	return true
}
