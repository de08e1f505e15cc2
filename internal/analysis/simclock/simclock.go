// Package simclock enforces the virtual-time discipline of the
// reproduction (DESIGN.md §2): all latency accounting flows through
// internal/simtime, so results are deterministic and runs are
// resumable. Wall-clock sampling anywhere else silently couples results
// to host speed and scheduling.
//
// The analyzer forbids the clock-reading and sleeping functions of the
// time package everywhere except the allowlist: internal/simtime itself
// (its Clock.Charge measures work that genuinely takes real time — the
// wire transport's socket exchanges — into virtual time; the cache's own
// costs are modelled, so that is the one sanctioned bridge) and lines
// carrying a //clampi:walltime comment with a reason, the escape hatch
// for genuinely wall-clock needs such as CLI progress reporting.
// time.Duration and the time constants remain available everywhere;
// only sampling the wall clock is restricted.
package simclock

import (
	"go/ast"
	"go/types"
	"strings"

	"clampi/internal/analysis"
)

// Analyzer flags wall-clock use outside the allowlist.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc:  "wall-clock time.Now/Since/Sleep outside internal/simtime breaks virtual-time determinism",
	Run:  run,
}

// AllowedPackages are the import paths (test variants included) where
// wall-clock sampling is sanctioned.
var AllowedPackages = []string{
	"clampi/internal/simtime",
}

// banned are the time-package functions that sample or consume the wall
// clock.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// Directive suppresses one line, stated with a reason:
// //clampi:walltime <why this must be wall time>
const Directive = "clampi:walltime"

func run(pass *analysis.Pass) error {
	path := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	for _, allowed := range AllowedPackages {
		if path == allowed {
			return nil
		}
	}
	for _, file := range pass.Files {
		suppressed := suppressedLines(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" || !banned[sel.Sel.Name] {
				return true
			}
			if suppressed[pass.Fset.Position(sel.Pos()).Line] {
				return true
			}
			pass.Reportf(sel.Pos(), "wall-clock time.%s breaks virtual-time determinism: route latency through internal/simtime (Clock.Advance/Busy/Charge), or annotate the line with //%s <reason>", sel.Sel.Name, Directive)
			return true
		})
	}
	return nil
}

// suppressedLines collects the lines of file carrying the directive.
func suppressedLines(pass *analysis.Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if strings.Contains(c.Text, Directive) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}
