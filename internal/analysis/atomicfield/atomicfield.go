// Package atomicfield enforces atomic-only access to struct fields
// annotated with a "// clampi:atomic" comment. The annotation marks
// fields that are read and written concurrently without a guarding
// mutex — the internal/obsv counter, gauge, histogram and trace-ring
// cells on the lock-free observability hot path (DESIGN.md §8).
//
// An access to an annotated field is legal only as
//
//   - the receiver of a method call, possibly through an index
//     expression — s.v.Add(1), h.buckets[i].Load() — which covers the
//     sync/atomic value types (atomic.Int64 and friends);
//   - &s.f passed directly to a sync/atomic package function —
//     atomic.AddUint64(&s.f, 1);
//   - a key-only range (for i := range h.buckets) or len/cap, which
//     read the array shape, never the cells.
//
// Everything else — plain reads, assignments, ++/--, copying the value,
// taking the address for anything but sync/atomic — is flagged. The
// annotation is package-local by construction: annotated fields are
// unexported, so every access site is in the package being analyzed.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clampi/internal/analysis"
	"clampi/internal/analysis/typeutil"
)

// Analyzer flags non-atomic access to fields marked // clampi:atomic.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "plain (non-sync/atomic) access to struct fields annotated // clampi:atomic",
	Run:  run,
}

// Marker is the annotation, written as a field comment:
//
//	next atomic.Uint64 // clampi:atomic
const Marker = "clampi:atomic"

func run(pass *analysis.Pass) error {
	annotated := collectAnnotated(pass)
	if len(annotated) == 0 {
		return nil
	}
	analysis.InspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || !annotated[obj] {
			return
		}
		if !allowedContext(pass.TypesInfo, sel, stack) {
			pass.Reportf(sel.Sel.Pos(), "field %s is marked %s: access it only through sync/atomic operations (its atomic.* methods, or atomic.XxxT(&x.%s, ...))", sel.Sel.Name, Marker, sel.Sel.Name)
		}
	})
	return nil
}

// collectAnnotated maps the field objects of this package carrying the
// marker in their doc or trailing comment.
func collectAnnotated(pass *analysis.Pass) map[types.Object]bool {
	annotated := make(map[types.Object]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !hasMarker(field.Doc) && !hasMarker(field.Comment) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						annotated[obj] = true
					}
				}
			}
			return true
		})
	}
	return annotated
}

func hasMarker(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.Contains(c.Text, Marker) {
			return true
		}
	}
	return false
}

// allowedContext decides whether the annotated-field selector sel is in
// one of the sanctioned contexts, given the stack of enclosing nodes
// (innermost last).
func allowedContext(info *types.Info, sel *ast.SelectorExpr, stack []ast.Node) bool {
	// Climb through index expressions: h.buckets[i] accesses one cell
	// of an annotated array, judged like the field itself.
	cur := ast.Node(sel)
	i := len(stack) - 1
	for i >= 0 {
		ix, ok := stack[i].(*ast.IndexExpr)
		if !ok || ix.X != cur {
			break
		}
		cur = ix
		i--
	}
	if i < 0 {
		return false
	}
	parent := stack[i]

	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// Receiver of a method call: s.v.Add(1). The methods of the
		// sync/atomic value types are the sanctioned API.
		if p.X != cur {
			return false
		}
		if i == 0 {
			return false
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok || call.Fun != p {
			return false
		}
		recv := typeutil.MethodReceiver(info.Uses[p.Sel])
		if recv == nil {
			return false
		}
		t := recv
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"

	case *ast.UnaryExpr:
		// &s.f as a direct argument of a sync/atomic function call.
		if p.Op != token.AND || p.X != cur || i == 0 {
			return false
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok || !typeutil.PkgFuncCall(info, call, "sync/atomic", "") {
			return false
		}
		for _, arg := range call.Args {
			if arg == parent {
				return true
			}
		}
		return false

	case *ast.RangeStmt:
		// Key-only range reads the array length, not the cells.
		return p.X == cur && p.Value == nil

	case *ast.CallExpr:
		// len/cap read the shape only.
		if id, ok := p.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			return true
		}
		return false
	}
	return false
}
