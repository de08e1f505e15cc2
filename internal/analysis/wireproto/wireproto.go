// Package wireproto cross-checks the wire protocol's parallel tables
// statically (DESIGN.md §13): the op-code constants, the opNames label
// map, the server dispatch switch, the client response switches and the
// encode call sites must all agree, and the error-code ↔ sentinel maps
// must be inverses of each other. Each table lives in a different file
// and nothing but convention keeps them in lockstep — exactly the kind
// of drift a new op code added to the codec but not the server handler
// causes, which no test catches until a live frame dies with
// "unexpected op".
//
// The analyzer gates itself to packages that declare an `opNames`
// package-level variable (internal/wire and its corpus mirrors) and
// checks, over the non-test files:
//
//   - every Op* byte constant is a key of opNames, is encoded somewhere
//     (passed to rpc/RPC/exchange/send/beginFrame/AppendFrame/respond), and is
//     dispatched: a request op (high bit clear) needs a case arm in the
//     server's `handle` function; a response op (high bit set) needs a
//     case arm outside `handle` (the client's response switches);
//   - every Code* uint16 constant is produced by errorToCode and
//     consumed by a codeToError case — except a code produced only by
//     errorToCode's default arm (the catch-all, CodeInternal), which
//     codeToError's own default covers;
//   - every package-level error sentinel referenced by a non-default
//     arm of errorToCode is also referenced by a non-default arm of
//     codeToError, and vice versa — an errors.Is identity must survive
//     the round-trip over the wire;
//   - payload size constants (*Size and *MaxPayload) fit the frame
//     header's uint32 length field, and every *Size constant fits
//     DefaultMaxPayload.
package wireproto

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"sort"
	"strings"

	"clampi/internal/analysis"
	"clampi/internal/analysis/typeutil"
)

// Analyzer cross-checks the wire protocol tables; see the package doc.
var Analyzer = &analysis.Analyzer{
	Name: "wireproto",
	Doc:  "cross-check the wire protocol tables: op codes vs opNames/encode/dispatch, error codes and sentinels vs errorToCode/codeToError, payload sizes vs MaxPayload (DESIGN.md §13)",
	Run:  run,
}

// encoders are the callees whose op-code argument constitutes an
// encode site: the op demonstrably leaves through a frame writer.
var encoders = map[string]bool{"rpc": true, "RPC": true, "exchange": true, "send": true, "beginFrame": true, "AppendFrame": true, "respond": true}

// protoConst is one Op*/Code* constant and where the tables mention it.
type protoConst struct {
	name  string
	value uint64
	pos   token.Pos

	inOpNames  bool
	encoded    bool
	caseFuncs  map[string]bool // functions containing a case arm for it
	returnedIn map[string]bool // functions returning it (non-default arms)
	defaulted  bool            // returned only by errorToCode's default arm
}

func run(pass *analysis.Pass) error {
	files := nonTestFiles(pass)
	opNamesLit := findOpNames(pass, files)
	if opNamesLit == nil {
		return nil // not a wire-protocol package
	}
	ops, codes := collectConsts(pass, files)
	if len(ops) == 0 {
		return nil
	}
	scanUses(pass, files, opNamesLit, ops, codes)
	checkOps(pass, ops)
	checkCodes(pass, codes)
	checkSentinels(pass, files)
	checkSizes(pass, files, ops)
	return nil
}

// nonTestFiles drops _test.go files: the tables under contract are the
// production ones, and test helpers legitimately mention ops half-way.
func nonTestFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// findOpNames locates the opNames map literal — the analyzer's gate.
func findOpNames(pass *analysis.Pass, files []*ast.File) *ast.CompositeLit {
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "opNames" || i >= len(vs.Values) {
						continue
					}
					if cl, ok := vs.Values[i].(*ast.CompositeLit); ok {
						return cl
					}
				}
			}
		}
	}
	return nil
}

// collectConsts gathers the Op* byte and Code* uint16 constants.
func collectConsts(pass *analysis.Pass, files []*ast.File) (ops, codes map[types.Object]*protoConst) {
	ops = make(map[types.Object]*protoConst)
	codes = make(map[types.Object]*protoConst)
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					v, exact := constant.Uint64Val(constant.ToInt(obj.Val()))
					if !exact {
						continue
					}
					pc := &protoConst{
						name:       name.Name,
						value:      v,
						pos:        name.Pos(),
						caseFuncs:  make(map[string]bool),
						returnedIn: make(map[string]bool),
					}
					switch {
					case strings.HasPrefix(name.Name, "Op") && isBasic(obj.Type(), types.Uint8):
						ops[obj] = pc
					case strings.HasPrefix(name.Name, "Code") && isBasic(obj.Type(), types.Uint16):
						codes[obj] = pc
					}
				}
			}
		}
	}
	return ops, codes
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// scanUses walks every use of each tracked constant and records which
// table it appears in: opNames key, encode argument, case arm (by
// enclosing function), or return value (by enclosing function and
// default-arm status).
func scanUses(pass *analysis.Pass, files []*ast.File, opNamesLit *ast.CompositeLit, ops, codes map[types.Object]*protoConst) {
	analysis.InspectWithStack(files, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return
		}
		pc := ops[obj]
		if pc == nil {
			pc = codes[obj]
		}
		if pc == nil {
			return
		}
		fn := enclosingFunc(stack)
		for i := len(stack) - 1; i >= 0; i-- {
			switch ctx := stack[i].(type) {
			case *ast.KeyValueExpr:
				if ctx.Key == id && i > 0 && stack[i-1] == ast.Node(opNamesLit) {
					pc.inOpNames = true
				}
			case *ast.CallExpr:
				if calleeName(ctx) != "" && encoders[calleeName(ctx)] && inArgs(ctx, id, stack, i) {
					pc.encoded = true
				}
			case *ast.CaseClause:
				if exprInList(ctx.List, id, stack, i) {
					pc.caseFuncs[fn] = true
				}
			case *ast.ReturnStmt:
				if fn != "" {
					if inDefaultArm(stack, i) {
						pc.defaulted = true
					} else {
						pc.returnedIn[fn] = true
					}
				}
			}
		}
	})
}

// enclosingFunc names the innermost enclosing function declaration.
func enclosingFunc(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// calleeName extracts the bare name of a call's callee (f or x.f).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// inArgs reports whether the identifier (at stack depth idIdx's child)
// sits in the call's argument list — directly, not nested in a subcall.
func inArgs(call *ast.CallExpr, id *ast.Ident, stack []ast.Node, callIdx int) bool {
	// The path from the call to the ident must not pass another call.
	for i := callIdx + 1; i < len(stack); i++ {
		if _, ok := stack[i].(*ast.CallExpr); ok {
			return false
		}
	}
	for _, arg := range call.Args {
		if containsIdent(arg, id) {
			return true
		}
	}
	return false
}

// exprInList reports whether the identifier hangs off one of the case
// clause's guard expressions (not its body).
func exprInList(list []ast.Expr, id *ast.Ident, stack []ast.Node, caseIdx int) bool {
	// The ident must be inside the clause's List, not its Body: walk up
	// from the ident; the node directly under the CaseClause must be an
	// expression of List.
	var under ast.Node = id
	if caseIdx+1 < len(stack) {
		under = stack[caseIdx+1]
	}
	for _, e := range list {
		if ast.Node(e) == under {
			return true
		}
	}
	return false
}

// containsIdent reports whether expr contains the exact ident node.
func containsIdent(expr ast.Expr, id *ast.Ident) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if n == ast.Node(id) {
			found = true
		}
		return !found
	})
	return found
}

// inDefaultArm reports whether the node at stack[idx] sits inside a
// default switch arm (a CaseClause with no guard expressions).
func inDefaultArm(stack []ast.Node, idx int) bool {
	for i := idx; i >= 0; i-- {
		if cc, ok := stack[i].(*ast.CaseClause); ok {
			return cc.List == nil
		}
	}
	return false
}

// checkOps enforces the four per-op obligations.
func checkOps(pass *analysis.Pass, ops map[types.Object]*protoConst) {
	for _, pc := range sorted(ops) {
		if !pc.inOpNames {
			pass.Reportf(pc.pos, "op %s has no opNames entry; diagnostics and metrics will print a raw byte", pc.name)
		}
		if !pc.encoded {
			pass.Reportf(pc.pos, "op %s is never encoded: no rpc/RPC/exchange/send/beginFrame/AppendFrame/respond call carries it", pc.name)
		}
		if pc.value&0x80 == 0 {
			if !pc.caseFuncs["handle"] {
				pass.Reportf(pc.pos, "request op %s has no dispatch arm in the server's handle switch; a conforming client frame would die as unexpected", pc.name)
			}
		} else {
			delete(pc.caseFuncs, "handle")
			if len(pc.caseFuncs) == 0 {
				pass.Reportf(pc.pos, "response op %s is never dispatched by a client response switch; the server can emit a frame no client understands", pc.name)
			}
		}
	}
}

// checkCodes enforces that every error code round-trips: produced by
// errorToCode, reconstructed by codeToError (catch-all codes exempt).
func checkCodes(pass *analysis.Pass, codes map[types.Object]*protoConst) {
	for _, pc := range sorted(codes) {
		produced := pc.returnedIn["errorToCode"]
		if !produced && !pc.defaulted {
			pass.Reportf(pc.pos, "error code %s is never produced by errorToCode; no server failure maps to it", pc.name)
		}
		if !pc.caseFuncs["codeToError"] && !(pc.defaulted && !produced) {
			pass.Reportf(pc.pos, "error code %s has no codeToError case; the client degrades it to a transient error and errors.Is breaks over the wire", pc.name)
		}
	}
}

// sorted returns the constants in declaration order for deterministic
// diagnostics.
func sorted(m map[types.Object]*protoConst) []*protoConst {
	out := make([]*protoConst, 0, len(m))
	for _, pc := range m {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// checkSentinels diffs the package-level error sentinels referenced by
// the non-default arms of errorToCode and codeToError.
func checkSentinels(pass *analysis.Pass, files []*ast.File) {
	type site struct {
		obj types.Object
		pos token.Pos
	}
	collect := func(fnName string) map[types.Object]token.Pos {
		out := make(map[types.Object]token.Pos)
		for _, file := range files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != fnName || fd.Body == nil {
					continue
				}
				var stack []ast.Node
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					if id, ok := n.(*ast.Ident); ok {
						obj := pass.TypesInfo.Uses[id]
						if isSentinel(obj) && !inDefaultArm(stack, len(stack)-1) {
							if _, seen := out[obj]; !seen {
								out[obj] = id.Pos()
							}
						}
					}
					stack = append(stack, n)
					return true
				})
			}
		}
		return out
	}
	enc := collect("errorToCode")
	dec := collect("codeToError")
	if len(enc) == 0 && len(dec) == 0 {
		return
	}
	var missing []site
	for obj, pos := range enc {
		if _, ok := dec[obj]; !ok {
			missing = append(missing, site{obj, pos})
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].pos < missing[j].pos })
	for _, s := range missing {
		pass.Reportf(s.pos, "sentinel %s is classified by errorToCode but never reconstructed by codeToError; its errors.Is identity is lost over the wire", s.obj.Name())
	}
	missing = missing[:0]
	for obj, pos := range dec {
		if _, ok := enc[obj]; !ok {
			missing = append(missing, site{obj, pos})
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].pos < missing[j].pos })
	for _, s := range missing {
		pass.Reportf(s.pos, "sentinel %s is reconstructed by codeToError but never classified by errorToCode; the server can never send it", s.obj.Name())
	}
}

// isSentinel reports whether obj is a package-level error variable.
func isSentinel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	return typeutil.ImplementsError(v.Type())
}

// checkSizes enforces the frame-size arithmetic: the payload length
// field is a uint32, so any *MaxPayload constant must fit it, and every
// *Size payload constant must fit under the default payload cap.
func checkSizes(pass *analysis.Pass, files []*ast.File, ops map[types.Object]*protoConst) {
	var maxPayload int64 = -1
	type sized struct {
		name  string
		value int64
		pos   token.Pos
	}
	var sizes []sized
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || obj.Val().Kind() != constant.Int {
						continue
					}
					v, exact := constant.Int64Val(constant.ToInt(obj.Val()))
					if !exact {
						continue
					}
					switch {
					case strings.HasSuffix(name.Name, "MaxPayload"):
						// The binding cap is the smallest declared limit:
						// a permissive cap must not mask a size constant
						// that overflows a stricter one.
						if maxPayload < 0 || v < maxPayload {
							maxPayload = v
						}
						if v > math.MaxUint32 {
							pass.Reportf(name.Pos(), "%s (%d) exceeds the frame header's uint32 payload length field", name.Name, v)
						}
					case strings.HasSuffix(name.Name, "Size"):
						sizes = append(sizes, sized{name.Name, v, name.Pos()})
					}
				}
			}
		}
	}
	if maxPayload < 0 {
		return
	}
	for _, s := range sizes {
		if s.value > maxPayload {
			pass.Reportf(s.pos, "%s (%d) exceeds the payload cap %d; a conforming frame could never carry it", s.name, s.value, maxPayload)
		}
	}
}
