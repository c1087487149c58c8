package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockingCall enforces the deadline discipline: no operation that can
// block for an unbounded time may be reachable from a deadline-bound
// root — a Stage entry point or a //ltephy:hotpath serving-loop or
// driver function. Inside the 5 ms subframe budget a
// blocked worker is a missed deadline, so the analyzer flags, in every
// reachable function:
//
//   - channel sends, receives and range-over-channel;
//   - select statements without a default clause (a select with default
//     is the sanctioned non-blocking poll, and its communication clauses
//     are exempt);
//   - acquisition-side sync primitives: Mutex.Lock, RWMutex.Lock/RLock,
//     WaitGroup.Wait, Cond.Wait;
//   - time.Sleep;
//   - calls into syscall/I/O packages (io, os, net, bufio, syscall,
//     net/http, os/exec) — reads and writes block on the peer.
//
// Audited blocking points opt out per function with //ltephy:blocking-ok
// plus a reason (the deque's bounded uncontended mutex, the ingest
// loop's transport-paced reads); the function's callees are still
// checked. //ltephy:coldpath removes a function from the walk entirely.
var BlockingCall = &Analyzer{
	Name: "blockingcall",
	Doc:  "flag potentially-blocking operations reachable from deadline-bound roots",
	Run:  runBlockingCall,
}

// blockingIOPkgs are the packages whose calls are assumed to reach a
// syscall or block on a peer. fmt is deliberately absent: its Fprint
// family only blocks through the passed writer, which these packages
// already cover at the write site.
var blockingIOPkgs = map[string]bool{
	"io":       true,
	"os":       true,
	"os/exec":  true,
	"net":      true,
	"net/http": true,
	"bufio":    true,
	"syscall":  true,
}

func runBlockingCall(pass *Pass) error {
	reach := pass.Prog.hotReach()
	info := pass.Pkg.Info
	for _, fd := range funcDecls(pass.Pkg) {
		fn := declObj(info, fd)
		if fn == nil || !reach.Contains(funcKey(fn)) {
			continue
		}
		if pass.Pkg.HasDirective(pass.Prog.Fset, fd, DirBlockingOK) {
			continue // audited blocking point; callees are still in the walk
		}
		checkBlocking(pass, info, fd, reach)
	}
	return nil
}

func checkBlocking(pass *Pass, info *types.Info, fd *ast.FuncDecl, reach *Reach) {
	key := funcKey(declObj(info, fd))
	via := reach.Path(key)

	// Communication clauses of every select are handled at the select
	// statement itself (flagged when there is no default), so the chan
	// operations inside them are not re-reported.
	var commSpans [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				commSpans = append(commSpans, [2]token.Pos{cc.Comm.Pos(), cc.Comm.End()})
			}
		}
		return true
	})
	inComm := func(n ast.Node) bool {
		for _, sp := range commSpans {
			if n.Pos() >= sp[0] && n.End() <= sp[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !inComm(n) {
				pass.Reportf(n.Pos(),
					"channel send in deadline-bound function (via %s); tasks must not block — annotate //ltephy:blocking-ok with a reason if audited", via)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm(n) {
				pass.Reportf(n.Pos(),
					"channel receive in deadline-bound function (via %s); tasks must not block — annotate //ltephy:blocking-ok with a reason if audited", via)
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(),
						"range over channel in deadline-bound function (via %s); the loop blocks until the channel closes", via)
				}
			}
		case *ast.SelectStmt:
			if !hasDefaultClause(n) {
				pass.Reportf(n.Pos(),
					"select without default in deadline-bound function (via %s); add a default for a non-blocking poll or move the wait off the deadline path", via)
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, info, n, via)
		}
		return true
	})
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func checkBlockingCall(pass *Pass, info *types.Info, call *ast.CallExpr, via string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Method call: the acquisition-side sync primitives block.
		if fn.Pkg().Path() == "sync" {
			switch fn.Name() {
			case "Lock", "RLock", "Wait":
				pass.Reportf(call.Pos(),
					"sync.%s acquisition in deadline-bound function (via %s); a contended lock stalls the subframe — annotate //ltephy:blocking-ok with a reason if the critical section is audited and bounded",
					fn.Name(), via)
			}
			return
		}
		if blockingIOPkgs[fn.Pkg().Path()] {
			pass.Reportf(call.Pos(),
				"%s.%s performs I/O in deadline-bound function (via %s)", fn.Pkg().Name(), fn.Name(), via)
		}
		return
	}
	// Package-level functions.
	switch {
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		pass.Reportf(call.Pos(),
			"time.Sleep in deadline-bound function (via %s); sleeping burns the subframe budget", via)
	case blockingIOPkgs[fn.Pkg().Path()]:
		pass.Reportf(call.Pos(),
			"%s.%s performs I/O or a syscall in deadline-bound function (via %s)", fn.Pkg().Name(), fn.Name(), via)
	}
}
