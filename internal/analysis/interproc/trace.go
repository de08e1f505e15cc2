package interproc

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"clampi/internal/analysis/typeutil"
)

// Trace computes the function's lexical event trace: classified lock
// acquisitions and releases and resolved calls, in source order. Events
// under a defer statement are flagged Deferred; events under a go
// statement belong to another goroutine — which does not inherit the
// caller's held set — and are omitted entirely (caveat: lock-order
// violations wholly inside a spawned closure are not seen).
func (e *Engine) Trace(info *types.Info, decl *ast.FuncDecl) []Event {
	if decl.Body == nil {
		return nil
	}
	assigns := collectAssigns(info, decl.Body)
	var events []Event
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok && !underGo(stack) {
			if ev, ok := e.callEvent(info, assigns, call, stack); ok {
				events = append(events, ev)
			}
		}
		stack = append(stack, n)
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].Pos < events[j].Pos })
	return events
}

// callEvent classifies one call expression into at most one event.
func (e *Engine) callEvent(info *types.Info, assigns map[types.Object]ast.Expr, call *ast.CallExpr, stack []ast.Node) (Event, bool) {
	ev := Event{Pos: call.Pos(), Deferred: underDefer(stack)}
	fun := call.Fun
	// Unwrap explicit generic instantiation: f[T](x).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fn := fun.(type) {
	case *ast.SelectorExpr:
		obj, _ := info.Uses[fn.Sel].(*types.Func)
		if obj == nil {
			return Event{}, false
		}
		if isMutexMethod(obj) {
			class, ok := e.classifyLock(info, assigns, fn.X, 4)
			if !ok {
				return Event{}, false
			}
			ev.Class = class
			switch obj.Name() {
			case "Lock", "RLock":
				ev.Kind = EvAcquire
				if ix, ok := fn.X.(*ast.IndexExpr); ok {
					if tv, ok := info.Types[ix.Index]; ok && tv.Value != nil {
						if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
							ev.Index, ev.HasIndex = v, true
						}
					}
				}
				if class == LockStripe {
					switch loopDirection(stack) {
					case -1:
						ev.Descending = true
					case +1:
						ev.Ascending = true
					}
				}
			default:
				ev.Kind = EvRelease
			}
			return ev, true
		}
		return e.funcEvent(ev, obj)
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Func); ok {
			return e.funcEvent(ev, obj)
		}
		// A call through a local holding a method value: f := s.helper; f().
		obj := objOf(info, fn)
		if obj == nil {
			return Event{}, false
		}
		src, ok := assigns[obj]
		if !ok {
			return Event{}, false
		}
		if sel, ok := src.(*ast.SelectorExpr); ok {
			if mfn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				return e.funcEvent(ev, mfn)
			}
		}
	}
	return Event{}, false
}

// funcEvent turns a resolved callee into a Call event if its body is in
// the Program.
func (e *Engine) funcEvent(ev Event, fn *types.Func) (Event, bool) {
	if id := FuncID(fn); e.funcs[id] != nil {
		ev.Kind, ev.Callee = EvCall, id
		return ev, true
	}
	return Event{}, false
}

// isMutexMethod reports whether obj is (R)Lock/(R)Unlock on a
// sync.Mutex or sync.RWMutex receiver.
func isMutexMethod(obj *types.Func) bool {
	switch obj.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return false
	}
	recv := typeutil.MethodReceiver(obj)
	return typeutil.IsNamed(recv, "sync", "Mutex") || typeutil.IsNamed(recv, "sync", "RWMutex")
}

// classifyLock resolves a lock receiver expression to its annotated
// class: it strips parens, derefs, and index chains down to the
// selected field, and follows single-assignment locals up to depth
// steps (locks := w.stripes[t]; locks[s].Lock()).
func (e *Engine) classifyLock(info *types.Info, assigns map[types.Object]ast.Expr, expr ast.Expr, depth int) (LockClass, bool) {
	if depth == 0 {
		return "", false
	}
	switch x := expr.(type) {
	case *ast.ParenExpr:
		return e.classifyLock(info, assigns, x.X, depth)
	case *ast.StarExpr:
		return e.classifyLock(info, assigns, x.X, depth)
	case *ast.IndexExpr:
		return e.classifyLock(info, assigns, x.X, depth)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return e.classifyLock(info, assigns, x.X, depth)
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[x.Sel]; obj != nil {
			if class, ok := e.locks[obj]; ok {
				return class, true
			}
		}
	case *ast.Ident:
		obj := objOf(info, x)
		if obj == nil {
			return "", false
		}
		if class, ok := e.locks[obj]; ok {
			return class, true
		}
		if src, ok := assigns[obj]; ok {
			return e.classifyLock(info, assigns, src, depth-1)
		}
	}
	return "", false
}

// collectAssigns gathers the single-assignment locals of a body: an
// identifier assigned exactly once maps to its source expression;
// reassignment or multi-value assignment kills the binding.
func collectAssigns(info *types.Info, body *ast.BlockStmt) map[types.Object]ast.Expr {
	assigns := make(map[types.Object]ast.Expr)
	dead := make(map[types.Object]bool)
	kill := func(id *ast.Ident) {
		if obj := objOf(info, id); obj != nil {
			dead[obj] = true
			delete(assigns, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(st.Lhs) != len(st.Rhs) {
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					kill(id)
				}
			}
			return true
		}
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objOf(info, id)
			if obj == nil {
				continue
			}
			if _, seen := assigns[obj]; seen || dead[obj] {
				kill(id)
				continue
			}
			assigns[obj] = st.Rhs[i]
		}
		return true
	})
	return assigns
}

// objOf resolves an identifier to its object, use or definition.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// underDefer reports whether the node whose ancestor stack is given
// executes at function exit (inside a defer statement or a closure
// deferred by one).
func underDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// underGo reports whether the node runs on a spawned goroutine.
func underGo(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.GoStmt); ok {
			return true
		}
	}
	return false
}

// loopDirection reports how the nearest enclosing for loop steps its
// variable: -1 for downward (i--, i -= k; a stripe acquisition there
// inverts the ascending order by construction), +1 for upward (i++,
// i += k; the sanctioned lockRange shape), 0 for no loop or an
// unclassifiable post statement.
func loopDirection(stack []ast.Node) int {
	for i := len(stack) - 1; i >= 0; i-- {
		loop, ok := stack[i].(*ast.ForStmt)
		if !ok {
			continue
		}
		switch post := loop.Post.(type) {
		case *ast.IncDecStmt:
			if post.Tok == token.DEC {
				return -1
			}
			return +1
		case *ast.AssignStmt:
			switch post.Tok {
			case token.SUB_ASSIGN:
				return -1
			case token.ADD_ASSIGN:
				return +1
			}
		}
		return 0
	}
	return 0
}
