// Package interproc is the summary-based interprocedural engine under
// the clampi-vet analyzers (DESIGN.md §14). The five lexical analyzers
// are function-local scans; they cannot see a mutex acquired in
// a caller or a helper. interproc closes that gap for the
// lock-discipline family:
//
//   - It builds a call graph over every package loaded in one analysis
//     run (the analysis.Program): direct calls, method calls — generic
//     instantiations included — and single-assignment method values.
//   - For every function with a body it computes a lock-set summary:
//     which lock classes the function may acquire at any point during
//     its execution (During) and the net effect it leaves on the
//     caller's held set (NetAcquire/NetRelease, defer-aware), each
//     propagated bottom-up through the call graph.
//
// Lock classes come from the // clampi:lockrank <class> field
// annotation on mutex (or stripe-slice) struct fields — the same
// comment-annotation idiom as clampi:atomic — plus local dataflow that
// traces an expression like locks[s].Lock() back through
// single-assignment locals and index chains to the annotated field.
// The DESIGN.md §12/§13 hierarchy names one class:
//
//	stripe  a per-(target, range) data-path RWMutex stripe
//
// Soundness model (deliberately the same strength as the lexical
// analyzers, extended across calls): the analysis is flow-insensitive
// over branches — events are folded in source order, so a conditional
// release counts as a release for everything lexically after it — and
// the recursion cut returns an empty summary for a cycle's in-progress
// member, so effects that only accumulate around a recursion cycle are
// not seen. Calls through unknown callees (function-typed fields,
// parameters, out-of-Program packages) contribute no effect. Events
// inside deferred calls and deferred closures apply their net effect at
// function exit and are exempt from in-order reporting. These are
// documented caveats, not accidents: the sanctioned locking shapes are
// all lexically bracketed, and anything cleverer deserves a reviewer.
package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"clampi/internal/analysis"
)

// LockClass is one level of the DESIGN.md §12/§13 lock hierarchy.
type LockClass string

// The hierarchy's one class.
const LockStripe LockClass = "stripe"

// RankMarker is the field annotation binding a mutex field to a lock
// class, e.g. `locks []sync.RWMutex // clampi:lockrank stripe`.
const RankMarker = "clampi:lockrank"

// Summary is one function's interprocedural lock-set summary.
type Summary struct {
	// During holds every class the function may acquire at some point
	// during its execution, transitively through its callees.
	During map[LockClass]bool
	// NetAcquire counts locks still held when the function returns
	// (a Lock helper); NetRelease counts locks the function releases on
	// behalf of its caller (an Unlock helper). Deferred releases are
	// folded in, so a begin/defer-end bracket nets to zero.
	NetAcquire map[LockClass]int
	NetRelease map[LockClass]int
}

// clone-free accessors keep callers from mutating the memoized maps.

// AcquiresDuring reports whether the function may acquire class c.
func (s *Summary) AcquiresDuring(c LockClass) bool { return s != nil && s.During[c] }

// EventKind discriminates trace events.
type EventKind int

// Trace event kinds, in the order the fold cares about them.
const (
	EvAcquire EventKind = iota // a classified Lock/RLock
	EvRelease                  // a classified Unlock/RUnlock
	EvCall                     // a call to a function with a known summary
)

// Event is one entry of a function's lexical lock trace.
type Event struct {
	Kind   EventKind
	Class  LockClass // EvAcquire/EvRelease
	Callee string    // EvCall: the callee's FuncID
	Pos    token.Pos
	// Index carries a constant stripe index when the acquired lock is
	// an indexed stripe with a compile-time index (HasIndex true) —
	// what lets two lexically ordered constant acquisitions prove they
	// follow the ascending total order.
	Index    int64
	HasIndex bool
	// Deferred marks events inside a defer statement (including inside
	// a deferred closure): their net effect applies at function exit.
	Deferred bool
	// Descending marks a stripe acquisition inside a for loop whose
	// post statement steps downward — a direct inversion of the
	// ascending stripe order. Ascending marks the dual: the nearest
	// enclosing loop provably steps upward, which is the sanctioned
	// lockRange pattern (each iteration acquires a higher stripe).
	Descending bool
	Ascending  bool
}

// funcInfo binds a declaration to the package whose type info covers it.
type funcInfo struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
}

// Engine holds the program-wide tables: the call graph, the annotated
// lock fields, and the memoized summaries. Build once per Program via
// For; Run is sequential so no locking is needed.
type Engine struct {
	funcs      map[string]*funcInfo
	locks      map[types.Object]LockClass
	summaries  map[string]*Summary
	inProgress map[string]bool
	callees    map[string][]string
}

// cacheKey keys the engine in Program.Cache.
type cacheKey struct{}

// For returns the engine for the pass's Program, building it on first
// use and sharing it across every per-package pass of the run.
func For(pass *analysis.Pass) *Engine {
	prog := pass.Prog
	if prog == nil {
		// A hand-built pass (no Program): analyze the one package.
		prog = analysis.NewProgram([]*analysis.Package{{
			Fset:  pass.Fset,
			Files: pass.Files,
			Types: pass.Pkg,
			Info:  pass.TypesInfo,
		}})
	}
	if e, ok := prog.Cache[cacheKey{}].(*Engine); ok {
		return e
	}
	e := build(prog)
	prog.Cache[cacheKey{}] = e
	return e
}

// build indexes every loaded package: function declarations by FuncID
// and annotated lock fields by object.
func build(prog *analysis.Program) *Engine {
	e := &Engine{
		funcs:      make(map[string]*funcInfo),
		locks:      make(map[types.Object]LockClass),
		summaries:  make(map[string]*Summary),
		inProgress: make(map[string]bool),
		callees:    make(map[string][]string),
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				e.funcs[FuncID(fn)] = &funcInfo{pkg: pkg, decl: fd}
			}
			collectLockRanks(pkg.Info, file, e.locks)
		}
	}
	return e
}

// collectLockRanks records the lock class of every field carrying a
// // clampi:lockrank <class> doc or trailing comment.
func collectLockRanks(info *types.Info, file *ast.File, out map[types.Object]LockClass) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			class, ok := rankOf(field.Doc)
			if !ok {
				class, ok = rankOf(field.Comment)
			}
			if !ok {
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = class
				}
			}
		}
		return true
	})
}

// rankOf extracts the class of a clampi:lockrank comment group.
func rankOf(g *ast.CommentGroup) (LockClass, bool) {
	if g == nil {
		return "", false
	}
	for _, c := range g.List {
		text := c.Text
		i := strings.Index(text, RankMarker)
		if i < 0 {
			continue
		}
		rest := strings.Fields(text[i+len(RankMarker):])
		if len(rest) > 0 {
			return LockClass(rest[0]), true
		}
	}
	return "", false
}

// FuncID returns the stable, cross-package identity of a function:
// "path.Name" for package functions, "path.(Recv).Name" for methods.
// Identity is by string (not object) because the loader type-checks
// each top-level package independently — the same function reached
// through an import and through its own load are distinct objects.
func FuncID(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj() != nil {
			return path + ".(" + n.Obj().Name() + ")." + fn.Name()
		}
		return path + ".(?)." + fn.Name()
	}
	return path + "." + fn.Name()
}

// Functions returns every FuncID with a body in the Program, sorted.
func (e *Engine) Functions() []string {
	out := make([]string, 0, len(e.funcs))
	for id := range e.funcs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Callees returns the resolved callees of one function, sorted and
// deduplicated — the call graph's adjacency list. Summaries drive the
// traversal, so the edges exist after Summary(id) has run; callers that
// only want the graph should call Summary first (it is memoized).
func (e *Engine) Callees(id string) []string {
	_ = e.Summary(id)
	out := append([]string(nil), e.callees[id]...)
	sort.Strings(out)
	return dedupe(out)
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Summary returns the memoized lock-set summary of one function,
// computing it (and its callees', bottom-up) on first use. Unknown
// functions summarize to the empty effect. A recursion cycle is cut by
// handing the in-progress member an empty summary — effects that only
// accumulate around the cycle are not observed (documented caveat).
func (e *Engine) Summary(id string) *Summary {
	if s, ok := e.summaries[id]; ok {
		return s
	}
	if e.inProgress[id] {
		return &Summary{}
	}
	fi := e.funcs[id]
	if fi == nil || fi.decl.Body == nil {
		s := newSummary()
		e.summaries[id] = s
		return s
	}
	e.inProgress[id] = true
	events := e.Trace(fi.pkg.Info, fi.decl)
	s := newSummary()
	held := make(map[LockClass]int)
	var deferred []Event
	var callees []string
	apply := func(ev Event) {
		switch ev.Kind {
		case EvAcquire:
			held[ev.Class]++
			s.During[ev.Class] = true
		case EvRelease:
			held[ev.Class]--
		case EvCall:
			cs := e.Summary(ev.Callee)
			for c := range cs.During {
				s.During[c] = true
			}
			for c, n := range cs.NetAcquire {
				held[c] += n
				s.During[c] = true
			}
			for c, n := range cs.NetRelease {
				held[c] -= n
			}
		}
	}
	for _, ev := range events {
		if ev.Kind == EvCall {
			callees = append(callees, ev.Callee)
		}
		if ev.Deferred {
			deferred = append(deferred, ev)
			continue
		}
		apply(ev)
	}
	for _, ev := range deferred {
		apply(ev)
	}
	for c, n := range held {
		if n > 0 {
			s.NetAcquire[c] = n
		} else if n < 0 {
			s.NetRelease[c] = -n
		}
	}
	delete(e.inProgress, id)
	e.summaries[id] = s
	e.callees[id] = callees
	return s
}

func newSummary() *Summary {
	return &Summary{
		During:     make(map[LockClass]bool),
		NetAcquire: make(map[LockClass]int),
		NetRelease: make(map[LockClass]int),
	}
}
