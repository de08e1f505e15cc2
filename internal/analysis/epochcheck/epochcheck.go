// Package epochcheck enforces the weak-consistency epoch contract of
// internal/rma (paper §III): the destination buffer of a Get — or of any
// GetOp issued through BatchWindow.GetBatch — is undefined until the
// epoch closes (Flush/FlushAll/Unlock/UnlockAll/Fence), and a window must
// not be used for data movement after its epoch was closed.
//
// The analysis is function-local and lexical: inside one function body
// it orders issues, completions and buffer uses by source position and
// flags
//
//  1. any read of a Get/GetBatch destination buffer between the
//     issuing call and the next completion call (foMPI catches this
//     class with a runtime assertion mode; here it is a compile-time
//     diagnostic) — for GetBatch, a buffer identifier named as the Dst
//     field of a rma.GetOp composite literal becomes pending at the next
//     GetBatch call — and
//  2. any Get/Put/Accumulate on a window after an Unlock/UnlockAll in
//     the same function with no intervening Lock/LockAll/Fence.
//
// It deliberately keys on the static receiver type being the
// clampi/internal/rma.Window interface: code written against the
// portable transport contract is checked, backend internals (which
// implement the contract and enforce it at runtime) are not.
//
// Two escapes keep the lexical rule precise on real code:
//
//   - an issue inside a return statement (`return w.Get(dst, ...)`)
//     creates no pending state — the in-flight transfer escapes to the
//     caller, which owns its completion, and lexically later code in
//     other branches never observes it; and
//   - a line carrying a //clampi:epoch comment with a reason is
//     suppressed — the sanctioned override for transport middleware
//     (fault injectors, fill verifiers) that must touch payload bytes
//     at issue time because the simulated transport materializes them
//     there.
package epochcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"clampi/internal/analysis"
	"clampi/internal/analysis/typeutil"
)

// Analyzer flags uses of RMA results before the epoch closes.
var Analyzer = &analysis.Analyzer{
	Name: "epochcheck",
	Doc: "reads of a Get/GetBatch destination buffer before Flush/Unlock/Fence, " +
		"and rma.Window data access after the epoch was closed",
	Run: run,
}

// RMAPath is the import path of the package defining the Window
// contract.
const RMAPath = "clampi/internal/rma"

// Directive suppresses one line, stated with a reason:
// //clampi:epoch <why this pre-completion access is sound>
const Directive = "clampi:epoch"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		suppressed := suppressedLines(pass, file)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkBody(pass, fn.Body, suppressed)
			}
		}
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

// opKind classifies the events of the lexical scan.
type opKind int

const (
	opIssue       opKind = iota // w.Get(dst,...): dst becomes pending
	opStage                     // rma.GetOp{Dst: buf, ...}: buf is staged for a batch issue
	opBatchIssue                // w.GetBatch(ops): every staged buffer becomes pending
	opCompleteAll               // epoch-closure call: every pending buffer completes
	opUse                       // a pending buffer is read
	opKill                      // the buffer variable is reassigned: stop tracking it
	opLock                      // Lock/LockAll/LockWithType/Fence: epoch (re)opens
	opUnlock                    // Unlock/UnlockAll: epoch closes
	opData                      // Get/Put/Accumulate/GetBatch: data movement on the window
)

// op is one event, ordered by source position.
type op struct {
	kind opKind
	pos  token.Pos
	obj  types.Object // buffer (issue/use/kill) or window (lock/unlock/data)
	name string       // method or identifier name, for diagnostics
}

// anyWindow keys the lock-state of window receivers the analysis cannot
// resolve to a variable or field.
var anyWindow = types.NewLabel(token.NoPos, nil, "<any window>")

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, suppressed map[int]bool) {
	info := pass.TypesInfo
	var ops []op
	skipUse := make(map[*ast.Ident]bool) // idents that are not value reads
	deferred := make(map[*ast.CallExpr]bool)
	escaping := make(map[*ast.CallExpr]bool) // issues inside a return: the caller completes them

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Everything a defer runs — the direct call, or any call
			// inside a deferred closure — executes at return, after all
			// lexically later statements.
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					deferred[call] = true
				}
				return true
			})

		case *ast.ReturnStmt:
			// An issue in a return expression (`return w.Get(dst, ...)`)
			// leaves the function with the transfer in flight: the caller
			// owns its completion, and no lexically later statement of
			// this function can execute on that path.
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						escaping[call] = true
					}
					return true
				})
			}

		case *ast.AssignStmt:
			// Reassigning a tracked variable detaches it from the
			// pending buffer; := introduces fresh objects, so only
			// plain assignment kills.
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						skipUse[id] = true
						if o := info.Uses[id]; o != nil {
							ops = append(ops, op{kind: opKill, pos: id.Pos(), obj: o})
						}
					}
				}
			}

		case *ast.CallExpr:
			// Deferred calls run at return: they neither complete
			// epochs for lexically later reads nor count as mid-body
			// accesses.
			if !deferred[n] {
				classifyCall(info, n, escaping[n], skipUse, &ops)
			}

		case *ast.CompositeLit:
			// rma.GetOp{Dst: buf, ...} stages buf: it becomes pending at
			// the next GetBatch call, exactly like a Get destination.
			if tv, ok := info.Types[n]; ok && typeutil.IsNamed(tv.Type, RMAPath, "GetOp") {
				if id := getOpDstIdent(n); id != nil {
					if o := info.Uses[id]; o != nil {
						ops = append(ops, op{kind: opStage, pos: n.Pos(), obj: o})
					}
				}
			}

		case *ast.Ident:
			// A use of a slice variable is a potential read of a
			// pending RMA destination.
			if !skipUse[n] {
				if o := info.Uses[n]; o != nil && isSliceVar(o) {
					ops = append(ops, op{kind: opUse, pos: n.Pos(), obj: o, name: n.Name})
				}
			}
		}
		return true
	})

	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })

	pending := make(map[types.Object]string) // buffer → issuing method
	staged := make(map[types.Object]bool)    // buffer → named as a GetOp.Dst, batch not yet issued
	closed := make(map[types.Object]bool)    // window → epoch closed earlier in this function
	for _, o := range ops {
		switch o.kind {
		case opKill:
			delete(pending, o.obj)
			delete(staged, o.obj)
		case opIssue:
			if o.obj != nil {
				pending[o.obj] = o.name
			}
		case opStage:
			staged[o.obj] = true
		case opBatchIssue:
			for buf := range staged {
				pending[buf] = o.name
			}
			clear(staged)
		case opCompleteAll:
			clear(pending)
		case opUse:
			if m, ok := pending[o.obj]; ok {
				if !suppressed[pass.Fset.Position(o.pos).Line] {
					pass.Reportf(o.pos, "buffer %q is read before the %s completes: RMA results are undefined until the epoch closes (Flush/Unlock/Fence; rma.Window contract, paper §III), or annotate the line with //%s <reason>", o.name, m, Directive)
				}
				delete(pending, o.obj) // one report per issue
			}
		case opLock:
			if o.obj == nil {
				clear(closed)
			} else {
				delete(closed, o.obj)
				delete(closed, anyWindow)
			}
		case opUnlock:
			closed[windowKey(o.obj)] = true
		case opData:
			if closed[windowKey(o.obj)] || closed[anyWindow] || (o.obj != nil && closed[o.obj]) {
				if !suppressed[pass.Fset.Position(o.pos).Line] {
					pass.Reportf(o.pos, "rma.Window.%s after the epoch was closed in this function: open a new Lock/LockAll epoch before further data movement", o.name)
				}
			}
		}
	}
}

func windowKey(obj types.Object) types.Object {
	if obj == nil {
		return anyWindow
	}
	return obj
}

// classifyCall appends the ops of one (non-deferred) call expression.
// escapes marks a call inside a return expression: its issue creates no
// pending state (the caller completes the transfer), but it still
// counts as data movement for the closed-epoch check.
func classifyCall(info *types.Info, call *ast.CallExpr, escapes bool, skipUse map[*ast.Ident]bool, ops *[]op) {
	// len/cap read only the slice header, never the transferred data.
	if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
		for _, a := range call.Args {
			if aid, ok := a.(*ast.Ident); ok {
				skipUse[aid] = true
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := info.Types[sel.X]
	if !ok || !(typeutil.IsNamed(tv.Type, RMAPath, "Window") ||
		typeutil.IsNamed(tv.Type, RMAPath, "BatchWindow") ||
		typeutil.IsNamed(tv.Type, RMAPath, "NotifyWindow")) {
		return
	}
	recv := typeutil.ObjectOf(info, sel.X)
	name := sel.Sel.Name
	switch name {
	case "GetBatch":
		// Every buffer staged in a GetOp literal up to here becomes
		// pending; pos is the call's end so Dst identifiers in an
		// inline ops literal stage before the issue.
		if !escapes {
			*ops = append(*ops, op{kind: opBatchIssue, pos: call.End(), name: "rma.BatchWindow.GetBatch"})
		}
		*ops = append(*ops, op{kind: opData, pos: call.Pos(), obj: recv, name: name})
	case "Get":
		var dst types.Object
		if len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				dst = info.Uses[id]
			}
		}
		// pos is the call's end so the dst identifier inside the
		// argument list is ordered before the issue, not flagged.
		if !escapes {
			*ops = append(*ops, op{kind: opIssue, pos: call.End(), obj: dst, name: "rma.Window." + name})
		}
		*ops = append(*ops, op{kind: opData, pos: call.Pos(), obj: recv, name: name})
	case "Put", "Accumulate", "PutNotify":
		*ops = append(*ops, op{kind: opData, pos: call.Pos(), obj: recv, name: name})
	case "Flush", "FlushAll":
		*ops = append(*ops, op{kind: opCompleteAll, pos: call.Pos()})
	case "Unlock", "UnlockAll":
		*ops = append(*ops, op{kind: opCompleteAll, pos: call.Pos()})
		*ops = append(*ops, op{kind: opUnlock, pos: call.Pos(), obj: recv})
	case "Fence":
		// Fence both completes the previous epoch and opens the
		// next one.
		*ops = append(*ops, op{kind: opCompleteAll, pos: call.Pos()})
		*ops = append(*ops, op{kind: opLock, pos: call.Pos(), obj: recv})
	case "Lock", "LockWithType", "LockAll":
		*ops = append(*ops, op{kind: opLock, pos: call.Pos(), obj: recv})
	}
}

// getOpDstIdent returns the identifier a GetOp composite literal names
// as its Dst field — keyed or positional — or nil when the field is
// absent or a more complex expression (a slice or selector expression
// denotes a derived view, matching the ident-only tracking of Get).
func getOpDstIdent(lit *ast.CompositeLit) *ast.Ident {
	for i, elt := range lit.Elts {
		switch e := elt.(type) {
		case *ast.KeyValueExpr:
			if key, ok := e.Key.(*ast.Ident); ok && key.Name == "Dst" {
				id, _ := e.Value.(*ast.Ident)
				return id
			}
		default:
			if i == 0 { // positional: Dst is the first field
				id, _ := elt.(*ast.Ident)
				return id
			}
		}
	}
	return nil
}

func isSliceVar(o types.Object) bool {
	v, ok := o.(*types.Var)
	if !ok {
		return false
	}
	_, ok = v.Type().Underlying().(*types.Slice)
	return ok
}
