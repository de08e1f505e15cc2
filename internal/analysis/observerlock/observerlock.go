// Package observerlock enforces the lock-free observer hot path
// (DESIGN.md §8): core.Observer implementations run arbitrary user code
// synchronously on the rank goroutine, so notifying one while a mutex
// is held turns every metric update into a critical-section extension —
// a latency hazard under the window stripes of concurrent ranks and a
// deadlock hazard if the observer re-enters the locking layer. The
// caching layer's contract is a nil-check-only dispatch outside any
// lock; this analyzer keeps it that way.
//
// The analysis is function-local and lexical: within one function body
// it tracks sync.Mutex/sync.RWMutex Lock/RLock and Unlock/RUnlock calls
// in source order (a deferred unlock holds the lock to function end)
// and flags any call through the core.Observer interface while the held
// count is positive. Calls on concrete observer implementations (e.g.
// *obsv.Collector in its own tests) are not flagged — the contract
// binds the caching layer's interface dispatch sites.
package observerlock

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"clampi/internal/analysis"
	"clampi/internal/analysis/typeutil"
)

// Analyzer flags core.Observer notifications under a held mutex.
var Analyzer = &analysis.Analyzer{
	Name: "observerlock",
	Doc:  "core.Observer methods must not be called while a mutex is held",
	Run:  run,
}

// CorePath is the import path defining the Observer interface.
const CorePath = "clampi/internal/core"

// observerMethods are the notification methods of core.Observer.
var observerMethods = map[string]bool{
	"OnAccess":     true,
	"OnEviction":   true,
	"OnAdjustment": true,
	"OnEpochClose": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkBody(pass, fn.Body)
			}
		}
	}
	return nil
}

type opKind int

const (
	opLock opKind = iota
	opUnlock
	opNotify
)

type op struct {
	kind opKind
	pos  token.Pos
	name string
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var ops []op
	deferred := make(map[*ast.CallExpr]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch {
			case isMutexMethod(info, sel, "Lock") || isMutexMethod(info, sel, "RLock"):
				if !deferred[n] {
					ops = append(ops, op{kind: opLock, pos: n.Pos()})
				}
			case isMutexMethod(info, sel, "Unlock") || isMutexMethod(info, sel, "RUnlock"):
				// A deferred unlock releases at return: it never ends
				// the critical section for lexically later calls.
				if !deferred[n] {
					ops = append(ops, op{kind: opUnlock, pos: n.Pos()})
				}
			case observerMethods[name] && !deferred[n]:
				tv, ok := info.Types[sel.X]
				if ok && typeutil.IsNamed(tv.Type, CorePath, "Observer") {
					ops = append(ops, op{kind: opNotify, pos: n.Pos(), name: name})
				}
			}
		}
		return true
	})

	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })

	held := 0
	for _, o := range ops {
		switch o.kind {
		case opLock:
			held++
		case opUnlock:
			if held > 0 {
				held--
			}
		case opNotify:
			if held > 0 {
				pass.Reportf(o.pos, "core.Observer.%s called while a mutex is held: observers run user code synchronously — release the lock before notifying (lock-free hot-path contract, DESIGN.md §8)", o.name)
			}
		}
	}
}

// isMutexMethod reports whether sel calls the named method of
// sync.Mutex or sync.RWMutex (embedded mutexes included: the method's
// receiver identifies the defining type).
func isMutexMethod(info *types.Info, sel *ast.SelectorExpr, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	recv := typeutil.MethodReceiver(info.Uses[sel.Sel])
	if recv == nil {
		return false
	}
	return typeutil.IsNamed(recv, "sync", "Mutex") || typeutil.IsNamed(recv, "sync", "RWMutex")
}
