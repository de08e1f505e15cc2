// Package analysis is a minimal, self-contained reimplementation of the
// core surface of golang.org/x/tools/go/analysis, built only on the
// standard library so the repository carries no external dependencies.
//
// It exists to host clampi-vet (cmd/clampi-vet): a suite of project
// analyzers that enforce invariants the Go type system cannot see — the
// weak-consistency epoch contract of internal/rma (epochcheck), the
// virtual-time discipline of internal/simtime (simclock), the errors.Is
// wrapping contract of the package sentinels (sentinelerr), atomic-only
// field access in internal/obsv (atomicfield), the lock-free observer
// hot path (observerlock) and the wire protocol tables (wireproto). Each
// analyzer sees one package at a time; none follows calls across
// functions.
//
// The shape mirrors go/analysis deliberately — an Analyzer holds a Run
// function over a Pass carrying the package's syntax and type
// information — so the suite can be ported to the real framework
// verbatim if x/tools ever becomes a dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one invariant checker. Name appears in diagnostics and
// in cmd/clampi-vet's -only flag; Doc states the invariant enforced and
// where it comes from (paper section or DESIGN.md section).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one package to an Analyzer: parsed files, the
// type-checked package object, and full type information. Run reports
// findings through Reportf.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding: a position, the analyzer that produced
// it, and a message stating the violated invariant.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the combined
// diagnostics in file/line order. All packages must come from the same
// Loader (they share its FileSet).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if fset != nil {
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return pi.Column < pj.Column
		})
	}
	return diags, nil
}

// InspectWithStack walks the files in source order, invoking f for every
// node with the stack of enclosing nodes (outermost first, innermost —
// the node's parent — last). Analyzers use it where a node's legality
// depends on its context, e.g. &s.f as an argument to atomic.AddUint64.
func InspectWithStack(files []*ast.File, f func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			f(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
