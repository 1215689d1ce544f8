// Package shardorder flags event-scheduling calls made while ranging
// over a map. Same-time events on an Engine fire in scheduling (FIFO)
// order, and cross-shard posts take their canonical tie-break keys from
// per-source scheduling sequence — so a `for k := range m { eng.After(...) }`
// lets Go's randomized map order decide the event interleaving, breaking
// the bit-identical sequential-vs-sharded contract the shard suite pins.
// Event.Release counts as scheduling: it runs a held series' due firings
// and queues the rest in call order.
// maporder catches map order leaking into output; shardorder catches it
// leaking into the simulation itself.
package shardorder

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the shardorder check.
var Analyzer = &analysis.Analyzer{
	Name: "shardorder",
	Doc: "flag Engine scheduling calls (and Event.Release) inside range-over-map loops — " +
		"same-time events fire in scheduling order and cross-shard posts " +
		"are keyed by scheduling sequence, so map iteration order would " +
		"decide the event interleaving",
	Run: run,
}

// schedMethods maps the methods that enqueue events, or run them, to the
// type that declares them. Their call order is observable: it decides FIFO
// tie-breaks between same-time events, the canonical (source, sequence)
// keys of cross-shard posts, and the order Release runs held firings in.
var schedMethods = map[string]string{
	"Schedule":            "Engine",
	"ScheduleSeriesAt":    "Engine",
	"ScheduleSeriesLocal": "Engine",
	"HoldSeriesLocal":     "Engine",
	"After":               "Engine",
	"AfterLocal":          "Engine",
	"PostTo":              "Engine",
	"PostToOrdered":       "Engine",
	"NewTicker":           "Engine",
	"Release":             "Event",
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			r, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(r.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkRange(pass, r)
			return true
		})
	}
	return nil, nil
}

// checkRange flags Engine scheduling calls in one map-range body.
// Function literals are skipped: a callback defined inside the loop
// runs later, in event order, not map order. (The loop visiting the
// range statement still descends into literals, so a map range inside
// a callback is checked in its own right.)
func checkRange(pass *analysis.Pass, r *ast.RangeStmt) {
	analysis.WalkSameFunc(r.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, ok := engineSched(pass.TypesInfo, call); ok {
			pass.Reportf(call.Pos(), "%s.%s inside map iteration: same-time events fire in scheduling order, so the interleaving would follow map order; iterate over sorted keys instead", recv, name)
		}
		return true
	})
}

// engineSched reports whether call is a scheduling method on the type
// schedMethods names for it, and that type's name (matched by name so the
// check works on any package's engine, including golden-test stand-ins).
func engineSched(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	recv, ok := schedMethods[sel.Sel.Name]
	if !ok {
		return "", "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != recv {
		return "", "", false
	}
	return recv, sel.Sel.Name, true
}
