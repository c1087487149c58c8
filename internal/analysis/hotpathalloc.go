package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the zero-alloc steady state: in every function
// reachable from a hot-path root — a Stage entry point (a method or
// function named Run or RunBatch whose first parameter is
// *workspace.Arena, the shape of uplink.Stage and uplink.BatchStage) or
// any function annotated //ltephy:hotpath — heap allocations that bypass
// the arena are flagged: make(), append that grows fresh heap memory, and
// interface boxing through ...interface{} variadics or explicit
// conversions. The call graph is walked across all loaded packages;
// //ltephy:coldpath functions (memoised warm-up, guards) are neither
// checked nor traversed, and a sanctioned allocation line carries
// //ltephy:alloc-ok. Arguments of a panic call are exempt — that path
// is already fatal.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag heap allocations in functions reachable from Stage.Run/RunBatch",
	Run:  runHotPathAlloc,
}

// funcKey canonically names a function declaration across packages.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// declOf maps a FuncDecl to its types.Func.
func declObj(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}

// hotFuncs computes (once per Program) the set of funcKeys reachable
// from the stage roots over the shared call graph — static calls plus
// interface dispatch through program-declared interfaces, so a Stage
// resolved through the registry or a deque behind the taskDeque
// interface no longer hides its callees from the walk.
func (prog *Program) hotFuncs() map[string]bool {
	prog.hotOnce.Do(func() {
		g := prog.CallGraph()
		prog.hotSet = g.Reachable(g.StageRoots()).Set()
	})
	return prog.hotSet
}

// isStageEntry reports whether the declaration has the Stage entry shape:
// named Run or RunBatch with *workspace.Arena as first parameter.
func isStageEntry(fd *ast.FuncDecl, fn *types.Func) bool {
	if fd.Name.Name != "Run" && fd.Name.Name != "RunBatch" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return IsArena(sig.Params().At(0).Type())
}

// calleeFunc resolves the static callee of a call, or nil (interface
// dispatch, func values, builtins, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					// Interface methods have no body to traverse; the Stage
					// implementations are seeded by name instead.
					if !isInterfaceRecv(fn) {
						return fn
					}
				}
			}
			return nil
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// arenaExemptPkg reports whether the package provides the arena itself —
// its nil-fallback make() calls are the sanctioned allocator.
func arenaExemptPkg(pkg *Package) bool {
	return pkg.Types.Name() == "workspace"
}

func runHotPathAlloc(pass *Pass) error {
	if arenaExemptPkg(pass.Pkg) {
		return nil
	}
	hot := pass.Prog.hotFuncs()
	info := pass.Pkg.Info
	for _, fd := range funcDecls(pass.Pkg) {
		fn := declObj(info, fd)
		if fn == nil || !hot[funcKey(fn)] {
			continue
		}
		checkHotFunc(pass, info, fd)
	}
	return nil
}

func checkHotFunc(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	name := fd.Name.Name
	origins := paramAndArenaOrigins(info, fd)

	var inPanic func(n ast.Node) bool // set below via closure over panic arg spans
	panicSpans := collectPanicArgSpans(info, fd.Body)
	inPanic = func(n ast.Node) bool {
		for _, sp := range panicSpans {
			if n.Pos() >= sp[0] && n.End() <= sp[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pass.Pkg.AllocOKLine(pass.Prog.Fset, call.Pos()) || inPanic(call) {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if _, isBuiltin := info.ObjectOf(fun).(*types.Builtin); isBuiltin {
				switch fun.Name {
				case "make":
					pass.Reportf(call.Pos(),
						"make() in hot-path function %s bypasses the arena; draw scratch from the worker arena or annotate //ltephy:coldpath / //ltephy:alloc-ok", name)
				case "append":
					if len(call.Args) > 0 && appendMayGrowHeap(info, origins, call.Args[0]) {
						pass.Reportf(call.Pos(),
							"append in hot-path function %s may grow fresh heap memory; pre-size the buffer from the arena or a parameter", name)
					}
				}
				return true
			}
		}
		// Interface boxing through ...interface{} variadics (fmt.Sprintf
		// and friends) allocates per argument.
		if boxes, callee := variadicAnyBoxing(info, call); boxes {
			pass.Reportf(call.Pos(),
				"call to %s boxes arguments into interface{} in hot-path function %s", callee, name)
		}
		return true
	})

	// Explicit interface conversions: any(x) / InterfaceType(x).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if pass.Pkg.AllocOKLine(pass.Prog.Fset, call.Pos()) || inPanic(call) {
			return true
		}
		// A type parameter's underlying type is its constraint interface,
		// but T(x) converts between concrete types: nothing is boxed.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && types.IsInterface(tv.Type) && !isTypeParam(tv.Type) {
			if argTV, ok := info.Types[call.Args[0]]; ok && !types.IsInterface(argTV.Type) && argTV.Type != types.Typ[types.UntypedNil] {
				pass.Reportf(call.Pos(), "conversion to interface boxes a value on the heap in hot-path function %s", name)
			}
		}
		return true
	})
}

func isTypeParam(t types.Type) bool {
	_, ok := types.Unalias(t).(*types.TypeParam)
	return ok
}

// paramAndArenaOrigins returns the set of local objects whose backing
// memory is caller-provided (parameters) or arena-carved — appends into
// those buffers are the sanctioned fill-in-place pattern (arena slices
// have cap==len, so growth would still be caught at the make site).
func paramAndArenaOrigins(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	ok := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				if obj := info.ObjectOf(id); obj != nil {
					ok[obj] = true
				}
			}
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, id := range field.Names {
				if obj := info.ObjectOf(id); obj != nil {
					ok[obj] = true
				}
			}
		}
	}
	var derives func(e ast.Expr) bool
	derives = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(e)
			return obj != nil && ok[obj]
		case *ast.SliceExpr:
			return derives(e.X)
		case *ast.IndexExpr:
			return derives(e.X)
		case *ast.SelectorExpr:
			return derives(e.X) // field of a parameter/receiver struct
		case *ast.CallExpr:
			if IsArenaAllocCall(info, e) {
				return true
			}
			// append(okVar, ...) stays caller/arena-backed when it does not
			// grow; treat its result as derived so the common
			// `dst = append(dst, v)` chain keeps its origin.
			if id, isIdent := ast.Unparen(e.Fun).(*ast.Ident); isIdent && id.Name == "append" && len(e.Args) > 0 {
				return derives(e.Args[0])
			}
		}
		return false
	}
	for range 2 {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, isAssign := n.(*ast.AssignStmt)
			if !isAssign || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil && derives(as.Rhs[i]) {
					ok[obj] = true
				}
			}
			return true
		})
	}
	return ok
}

// appendMayGrowHeap reports whether the append target is neither
// caller-provided nor arena-backed (a fresh heap slice or zero value
// being grown element by element).
func appendMayGrowHeap(info *types.Info, origins map[types.Object]bool, arg ast.Expr) bool {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		return obj == nil || !origins[obj]
	case *ast.SliceExpr:
		return appendMayGrowHeap(info, origins, e.X)
	case *ast.SelectorExpr:
		return appendMayGrowHeap(info, origins, e.X)
	case *ast.IndexExpr:
		return appendMayGrowHeap(info, origins, e.X)
	case *ast.CallExpr:
		if IsArenaAllocCall(info, e) {
			return false
		}
	}
	return true
}

// variadicAnyBoxing reports whether call passes non-interface values to a
// ...interface{} variadic parameter.
func variadicAnyBoxing(info *types.Info, call *ast.CallExpr) (bool, string) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false, ""
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || !sig.Variadic() || sig.Params().Len() == 0 {
		return false, ""
	}
	last := sig.Params().At(sig.Params().Len() - 1).Type()
	slice, ok := last.(*types.Slice)
	if !ok || !types.IsInterface(slice.Elem()) {
		return false, ""
	}
	if call.Ellipsis.IsValid() {
		return false, "" // forwarding an existing []any: no new boxing
	}
	fixed := sig.Params().Len() - 1
	for i := fixed; i < len(call.Args); i++ {
		argTV, ok := info.Types[call.Args[i]]
		if !ok {
			continue
		}
		if !types.IsInterface(argTV.Type) && !isUntypedNil(argTV.Type) {
			return true, calleeName(info, call)
		}
	}
	return false, ""
}

// collectPanicArgSpans returns the position spans of every panic(...)
// argument list in the body: allocations there are on an already-fatal
// path and exempt from the zero-alloc rule.
func collectPanicArgSpans(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			spans = append(spans, [2]token.Pos{call.Lparen, call.Rparen})
		}
		return true
	})
	return spans
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if fn.Pkg() != nil {
			return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name())
		}
		return fn.Name()
	}
	s := types.ExprString(call.Fun)
	if i := strings.IndexByte(s, '('); i > 0 {
		s = s[:i]
	}
	return s
}
