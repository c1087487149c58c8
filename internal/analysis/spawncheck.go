package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpawnCheck enforces the goroutine lifecycle discipline in the
// scheduler and fronthaul layers: every `go` statement must sit inside a
// function annotated //ltephy:spawn-point (the audited lifecycle points
// — pool construction, the accept loop, the wire generator), and every
// spawn must carry a provable join so no goroutine outlives its owner:
//
//   - a WaitGroup bracket: wg.Add(...) before the `go` statement in the
//     spawning function, and a Done() on a WaitGroup inside the spawned
//     body (directly in a closure, or in the body of a statically
//     resolved callee);
//   - or a result channel: the spawned closure sends on a channel
//     variable that the spawning function later receives from.
//
// Anything else — a bare `go f()` with no Add/Done bracket, a spawn in
// an unannotated function — is a potential leak: a worker that survives
// Pool.Close, a per-connection handler the server cannot drain.
var SpawnCheck = &Analyzer{
	Name: "spawncheck",
	Doc:  "require //ltephy:spawn-point lifecycle annotations and provable joins for every go statement",
	Run:  runSpawnCheck,
}

func runSpawnCheck(pass *Pass) error {
	info := pass.Pkg.Info
	for _, fd := range funcDecls(pass.Pkg) {
		isSpawnPoint := pass.Pkg.HasDirective(pass.Prog.Fset, fd, DirSpawnPoint)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !isSpawnPoint {
				pass.Reportf(gs.Pos(),
					"go statement outside a //ltephy:spawn-point function; goroutine lifecycle points must be annotated and audited")
			}
			if !hasJoinProof(pass, info, fd, gs) {
				pass.Reportf(gs.Pos(),
					"goroutine has no provable join: bracket it with WaitGroup Add/Done or receive its result on a channel before returning")
			}
			return true
		})
	}
	return nil
}

// hasJoinProof looks for either join shape for the spawn at gs.
func hasJoinProof(pass *Pass, info *types.Info, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	body, bodyInfo := spawnedBody(pass, info, gs)
	if body == nil {
		return false
	}
	// WaitGroup bracket: Add before the spawn, Done inside the spawned body.
	if hasWaitGroupCall(info, fd.Body, "Add", func(n ast.Node) bool { return n.Pos() < gs.Pos() }) &&
		hasWaitGroupCall(bodyInfo, body, "Done", nil) {
		return true
	}
	// Result channel: the spawned body sends on a channel object that the
	// spawner receives from after the go statement. Only closures can
	// capture the spawner's channel variable, so this shape is only
	// checked when the spawned body is a literal.
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		for _, ch := range sentChannels(info, lit.Body) {
			if receivesFrom(info, fd.Body, ch, gs.End()) {
				return true
			}
		}
	}
	return false
}

// spawnedBody resolves the body the spawned goroutine runs: the literal
// itself for `go func(){...}()`, or the declaration of a statically
// resolved program callee for `go w.run()` / `go s.handleConn(c)`.
func spawnedBody(pass *Pass, info *types.Info, gs *ast.GoStmt) (*ast.BlockStmt, *types.Info) {
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body, info
	}
	fn := calleeFunc(info, gs.Call)
	if fn == nil {
		return nil, nil
	}
	fd, pkg := pass.Prog.CallGraph().Decl(funcKey(fn))
	if fd == nil {
		return nil, nil
	}
	return fd.Body, pkg.Info
}

// hasWaitGroupCall reports whether body contains a call named method on a
// sync.WaitGroup receiver, optionally filtered by position.
func hasWaitGroupCall(info *types.Info, body *ast.BlockStmt, method string, where func(ast.Node) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		tv, ok := info.Types[sel.X]
		if !ok || !isNamed(tv.Type, "sync", "WaitGroup") {
			return true
		}
		if where == nil || where(call) {
			found = true
		}
		return true
	})
	return found
}

// sentChannels collects the objects of channel-typed identifiers the body
// sends on.
func sentChannels(info *types.Info, body *ast.BlockStmt) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(send.Chan).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// receivesFrom reports whether body contains a receive (<-ch, including
// select clauses) from the given channel object positioned after `after`.
func receivesFrom(info *types.Info, body *ast.BlockStmt, ch types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW || ue.Pos() < after {
			return true
		}
		if id, ok := ast.Unparen(ue.X).(*ast.Ident); ok && info.ObjectOf(id) == ch {
			found = true
		}
		return true
	})
	return found
}
