package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is the shared whole-program call graph every cross-function
// analyzer walks: one node per function declaration (nested function
// literals belong to their enclosing declaration — a closure's body is
// analysed as part of its creator, which is exactly the lifetime the
// arena and deadline disciplines care about), with edges for
//
//   - static calls (direct function calls and concrete method calls),
//   - interface dispatch through interfaces *declared in this program*
//     (uplink.Stage/BatchStage, sched's taskDeque, params.Model,
//     fronthaul.Predictor, ...), resolved RTA-style: an interface method
//     call fans out to the corresponding method of every program type
//     that implements the interface. Standard-library interfaces (error,
//     io.Reader) are deliberately not resolved — fanning error.Error out
//     to every sentinel type would drown the deadline analyses in
//     diagnostic paths, and none of the enforced invariants dispatch
//     through them.
//
// Calls through plain func values (struct fields like sched.Task.fn,
// parameters like turbo.Parallel) are not resolvable statically; the
// closures those fields carry are covered at their creation site instead,
// because literal bodies are analysed as part of the enclosing function.
//
// The graph is built once per Program (all analyzers share it through
// Program.CallGraph), so adding analyzers does not multiply the cost.
type CallGraph struct {
	prog  *Program
	decls map[string]*ast.FuncDecl
	pkgOf map[string]*Package
	edges map[string][]string

	namedTypes []types.Type // every named non-interface type in the program
	implCache  map[implKey][]string
}

type implKey struct {
	iface *types.Interface
	name  string
}

// CallGraph returns the program's call graph, building it on first use.
func (prog *Program) CallGraph() *CallGraph {
	prog.cgOnce.Do(func() {
		prog.cg = buildCallGraph(prog)
	})
	return prog.cg
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:      prog,
		decls:     map[string]*ast.FuncDecl{},
		pkgOf:     map[string]*Package{},
		edges:     map[string][]string{},
		implCache: map[implKey][]string{},
	}
	// Index every function declaration and every named concrete type.
	for _, pkg := range prog.Pkgs {
		for _, fd := range funcDecls(pkg) {
			fn := declObj(pkg.Info, fd)
			if fn == nil {
				continue
			}
			key := funcKey(fn)
			g.decls[key] = fd
			g.pkgOf[key] = pkg
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			g.namedTypes = append(g.namedTypes, t)
		}
	}
	// Edge collection: one pass over every body.
	for key, fd := range g.decls {
		pkg := g.pkgOf[key]
		seen := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range g.callees(pkg.Info, call) {
				if !seen[callee] {
					seen[callee] = true
					g.edges[key] = append(g.edges[key], callee)
				}
			}
			return true
		})
	}
	return g
}

// callees resolves a call site to the set of possible program callees:
// one for a static call, the implementer fan-out for an interface
// dispatch, none for func values and builtins.
func (g *CallGraph) callees(info *types.Info, call *ast.CallExpr) []string {
	if fn := calleeFunc(info, call); fn != nil {
		key := funcKey(fn)
		if _, ok := g.decls[key]; ok {
			return []string{key}
		}
		return nil
	}
	// Interface dispatch: a method-value selection whose receiver is an
	// interface declared in one of the program's packages.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !isInterfaceRecv(fn) {
		return nil
	}
	recv := s.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || g.prog.PackageOf(named.Obj().Pkg().Path()) == nil {
		return nil // unnamed or stdlib interface: not resolved
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return g.implementers(iface, fn.Name(), named.Obj().Pkg())
}

// implementers returns the funcKeys of method `name` on every program
// type implementing iface (by value or pointer receiver). ifacePkg is
// the interface's declaring package: method lookup needs it to see
// unexported methods like the scheduler's taskDeque operations.
func (g *CallGraph) implementers(iface *types.Interface, name string, ifacePkg *types.Package) []string {
	k := implKey{iface, name}
	if impls, ok := g.implCache[k]; ok {
		return impls
	}
	var impls []string
	for _, t := range g.namedTypes {
		ptr := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifacePkg, name)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		key := funcKey(m)
		if _, declared := g.decls[key]; declared {
			impls = append(impls, key)
		}
	}
	sort.Strings(impls)
	g.implCache[k] = impls
	return impls
}

// Decl returns the declaration and package of a graph node.
func (g *CallGraph) Decl(key string) (*ast.FuncDecl, *Package) {
	return g.decls[key], g.pkgOf[key]
}

// isColdPath reports whether the node is annotated //ltephy:coldpath —
// reachability walks neither check nor traverse through such functions.
func (g *CallGraph) isColdPath(key string) bool {
	fd, pkg := g.decls[key], g.pkgOf[key]
	return fd != nil && pkg.HasDirective(g.prog.Fset, fd, DirColdPath)
}

// StageRoots returns the hot-path root set: every function with the
// Stage entry shape (named Run/RunBatch with *workspace.Arena first
// parameter) plus every //ltephy:hotpath-annotated function.
func (g *CallGraph) StageRoots() []string {
	return g.roots(func(fd *ast.FuncDecl, fn *types.Func, pkg *Package) bool {
		return isStageEntry(fd, fn) || pkg.HasDirective(g.prog.Fset, fd, DirHotPath)
	})
}

func (g *CallGraph) roots(pred func(*ast.FuncDecl, *types.Func, *Package) bool) []string {
	var out []string
	for key, fd := range g.decls {
		pkg := g.pkgOf[key]
		fn := declObj(pkg.Info, fd)
		if fn != nil && pred(fd, fn, pkg) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Reach is the result of a reachability walk: membership plus one
// concrete call path per reached node, so analyzers can report *why* a
// function is constrained, not just that it is.
type Reach struct {
	g    *CallGraph
	in   map[string]bool
	pred map[string]string // callee -> caller that first reached it
}

// Reachable walks the graph breadth-first from roots, skipping
// //ltephy:coldpath functions (they are neither checked nor traversed).
func (g *CallGraph) Reachable(roots []string) *Reach {
	r := &Reach{g: g, in: map[string]bool{}, pred: map[string]string{}}
	var queue []string
	for _, root := range roots {
		if g.isColdPath(root) || r.in[root] {
			continue
		}
		r.in[root] = true
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.edges[cur] {
			if r.in[next] || g.isColdPath(next) {
				continue
			}
			r.in[next] = true
			r.pred[next] = cur
			queue = append(queue, next)
		}
	}
	return r
}

// Contains reports membership.
func (r *Reach) Contains(key string) bool { return r.in[key] }

// Path renders the call chain from a root to key, innermost first
// ("c ← b ← a" means a calls b calls c), trimmed to a handful of hops.
func (r *Reach) Path(key string) string {
	var hops []string
	for cur := key; cur != ""; cur = r.pred[cur] {
		hops = append(hops, shortKey(cur))
		if len(hops) >= 5 {
			hops = append(hops, "…")
			break
		}
	}
	return strings.Join(hops, " ← ")
}

// shortKey trims the import path of a funcKey to its last element:
// "ltephy/internal/sched.worker.runTask" -> "sched.worker.runTask".
func shortKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// hotReach caches the walk from the stage roots, shared by hotpathalloc
// and blockingcall: what must not allocate is what must not block.
func (prog *Program) hotReach() *Reach {
	prog.hotOnce.Do(func() {
		g := prog.CallGraph()
		prog.hot = g.Reachable(g.StageRoots())
	})
	return prog.hot
}

// lockSets caches the per-function transitive lock-acquisition sets the
// lockorder analyzer computes (see lockorder.go).
func (prog *Program) lockOrder() *lockOrderFacts {
	prog.lockOnce.Do(func() {
		prog.lockFacts = buildLockOrderFacts(prog)
	})
	return prog.lockFacts
}
