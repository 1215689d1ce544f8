package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// IgnoreCategory is the category under which the runner reports
// problems with suppression directives themselves (a malformed
// //lint:ignore never silently suppresses anything).
const IgnoreCategory = "lint"

// An ignoreDirective is one parsed //lint:ignore comment. A directive
// suppresses diagnostics of the named checks on its own line or on the
// line directly below it (so it can trail the offending statement or
// sit on the line above, staticcheck-style).
type ignoreDirective struct {
	file     string
	line     int
	pos      token.Pos
	position token.Position
	checks   []string
	// used records, per named check, whether the directive suppressed
	// at least one diagnostic in this run — the unused-suppression
	// check reports the ones that did nothing.
	used map[string]bool
}

// RunPackage runs each analyzer over pkg, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by
// position, category, and message — a deterministic order, since the
// linter of a determinism contract had better not have
// nondeterministic output itself.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Module:    pkg.loader.Module,
		}
		pass.Report = func(d Diagnostic) {
			d.Category = a.Name
			d.Position = pkg.Fset.Position(d.Pos)
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	directives, malformed := collectIgnores(pkg)
	diags = append(diags, malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, directives) {
			kept = append(kept, d)
		}
	}
	diags = kept
	// Stale-suppression findings: a directive naming a check that ran
	// in this very analyzer set yet suppressed nothing is dead weight
	// that would hide a future diagnostic at that line unreviewed.
	// Checks outside this run's set are not flagged — per-package
	// analyzer subsets and single-analyzer golden runs would otherwise
	// produce false positives.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, dir := range directives {
		for _, c := range dir.checks {
			if ran[c] && !dir.used[c] {
				diags = append(diags, Diagnostic{
					Pos:      dir.pos,
					Category: IgnoreCategory,
					Message:  fmt.Sprintf("unused //lint:ignore: check %q reports nothing here", c),
					Position: dir.position,
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// collectIgnores parses every //lint:ignore directive in pkg. The
// required form is
//
//	//lint:ignore check1[,check2...] reason
//
// A directive without both a check list and a non-empty reason is
// reported as a diagnostic (category "lint") and suppresses nothing:
// an unexplained suppression is itself a contract violation.
func collectIgnores(pkg *Package) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments cannot carry directives
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Category: IgnoreCategory,
						Message:  "malformed //lint:ignore: want \"//lint:ignore <checks> <reason>\" with a non-empty reason",
						Position: pos,
					})
					continue
				}
				dirs = append(dirs, ignoreDirective{
					file:     pos.Filename,
					line:     pos.Line,
					pos:      c.Pos(),
					position: pos,
					checks:   strings.Split(fields[0], ","),
					used:     make(map[string]bool),
				})
			}
		}
	}
	return dirs, malformed
}

func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	if d.Category == IgnoreCategory {
		return false // directive problems cannot be self-suppressed
	}
	for _, dir := range dirs {
		if dir.file != d.Position.Filename {
			continue
		}
		if dir.line != d.Position.Line && dir.line != d.Position.Line-1 {
			continue
		}
		for _, c := range dir.checks {
			if c == d.Category {
				dir.used[c] = true
				return true
			}
		}
	}
	return false
}
