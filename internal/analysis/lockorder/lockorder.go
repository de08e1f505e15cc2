// Package lockorder enforces the DESIGN.md §12/§13 lock hierarchy
// interprocedurally, on top of the internal/analysis/interproc
// summaries: data-path stripes (clampi:lockrank stripe) form a total
// order by index. Holding one stripe while acquiring another — directly
// or through any callee — is legal only when both indices are
// compile-time constants in ascending order or the acquisition sits in
// a provably ascending loop (the lockRange shape); a stripe acquisition
// inside a descending loop is an inversion by construction.
//
// A finding is suppressed by a //clampi:lockorder <reason> comment on
// its line; the reason is mandatory by convention and reviewed, not
// parsed.
package lockorder

import (
	"go/ast"
	"go/token"

	"clampi/internal/analysis"
	"clampi/internal/analysis/interproc"
)

// Marker is the escape directive: a //clampi:lockorder <reason>
// comment on the offending line acknowledges and suppresses a finding.
const Marker = "clampi:lockorder"

// Analyzer enforces the lock hierarchy; see the package comment.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "enforce the DESIGN.md §12/§13 lock hierarchy (ascending stripes) across function calls",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	eng := interproc.For(pass)
	directives := analysis.DirectiveLines(pass.Fset, pass.Files, Marker)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, eng, directives, fd)
		}
	}
	return nil
}

// checkFunc folds the function's event trace over a held-lock multiset
// and reports every hierarchy violation at the event that completes it.
func checkFunc(pass *analysis.Pass, eng *interproc.Engine, directives map[string]map[int]bool, fd *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		p := pass.Fset.Position(pos)
		if directives[p.Filename][p.Line] {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	held := make(map[interproc.LockClass]int)
	// Stripe ascending-order state: the highest constant index among
	// the currently held stripes, and whether every held stripe has a
	// constant index (only then can ascent be proven).
	stripeTop := int64(-1)
	stripeConst := true
	for _, ev := range eng.Trace(pass.TypesInfo, fd) {
		if ev.Deferred {
			// Runs at function exit; order violations there would be
			// against an empty held set (releases only, in practice).
			continue
		}
		switch ev.Kind {
		case interproc.EvAcquire:
			if ev.Class == interproc.LockStripe {
				if ev.Descending {
					report(ev.Pos, "stripe lock acquired in a descending loop; stripes must be acquired in ascending index order (DESIGN.md §13)")
				} else if held[interproc.LockStripe] > 0 && !ev.Ascending &&
					!(stripeConst && ev.HasIndex && ev.Index > stripeTop) {
					// An acquisition inside a provably ascending loop is
					// the sanctioned lockRange shape; anything else needs
					// constant, strictly increasing indices.
					report(ev.Pos, "acquiring a stripe lock while another stripe is held without provably ascending indices (DESIGN.md §13)")
				}
				if ev.HasIndex {
					if ev.Index > stripeTop {
						stripeTop = ev.Index
					}
				} else {
					stripeConst = false
				}
			}
			held[ev.Class]++
		case interproc.EvRelease:
			if held[ev.Class] > 0 {
				held[ev.Class]--
			}
			if ev.Class == interproc.LockStripe && held[interproc.LockStripe] == 0 {
				stripeTop, stripeConst = -1, true
			}
		case interproc.EvCall:
			s := eng.Summary(ev.Callee)
			if s.AcquiresDuring(interproc.LockStripe) && held[interproc.LockStripe] > 0 {
				report(ev.Pos, "call to %s may acquire a stripe lock while a stripe is held without provably ascending indices (DESIGN.md §13)", ev.Callee)
			}
			// The callee's net effect lands on our held set: a Lock
			// helper leaves its class held, an Unlock helper clears it.
			for c, n := range s.NetAcquire {
				held[c] += n
				if c == interproc.LockStripe && held[c] > 0 {
					stripeConst = false
				}
			}
			for c, n := range s.NetRelease {
				held[c] -= n
				if held[c] < 0 {
					held[c] = 0
				}
				if c == interproc.LockStripe && held[c] == 0 {
					stripeTop, stripeConst = -1, true
				}
			}
		}
	}
}
