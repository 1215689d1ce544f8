// Package analysis is a small, stdlib-only static-analysis framework:
// a loader built on go/parser + go/types + go/importer, an Analyzer
// type mirroring the golang.org/x/tools/go/analysis shape (so analyzers
// port trivially in either direction), and a diagnostics runner with
// deterministic ordering and //lint:ignore suppression.
//
// The framework exists to give the repo's determinism contract
// mechanical teeth: every published figure and table depends on the
// simulation being bit-reproducible per seed, and the analyzers under
// internal/analysis/... prove the invariant holds on every build
// instead of trusting code review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer: Name is the check's
// identifier (used in diagnostics and //lint:ignore directives), Doc a
// one-paragraph description, and Run the per-package entry point.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// A Pass provides one analyzer run over one package: the parsed files,
// full type information, and a Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module loads (once per run) every non-test package of the module
	// Pkg belongs to, for checks that need the whole program.
	Module func() (*Module, error)

	// Report delivers one diagnostic. The runner fills in Category
	// and resolved Position, and applies suppression afterwards.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding. Position is resolved by the runner from
// Pos so callers can print file:line:col without holding the FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name, filled by the runner
	Message  string
	Position token.Position
}

// String renders the conventional "file:line:col: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Category, d.Message)
}
