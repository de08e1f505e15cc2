package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectiveLines collects, per file, the source lines carrying a line
// directive: a comment whose text begins with marker immediately after
// the "//" (a trailing reason is allowed and encouraged). Analyzers use
// it for escape hatches that exempt a single access site, e.g.
//
//	w0 := time.Now() //clampi:walltime host ns/op is a benchmark output, not simulated time
//
// The prefix requirement keeps prose that merely mentions the marker —
// doc comments, test expectations — from acting as a directive.
func DirectiveLines(fset *token.FileSet, files []*ast.File, marker string) map[string]map[int]bool {
	lines := make(map[string]map[int]bool)
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, marker) {
					continue
				}
				p := fset.Position(c.Pos())
				m := lines[p.Filename]
				if m == nil {
					m = make(map[int]bool)
					lines[p.Filename] = m
				}
				m[p.Line] = true
			}
		}
	}
	return lines
}
