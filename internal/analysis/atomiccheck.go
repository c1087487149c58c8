package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicCheck enforces consistent atomicity in the scheduler: a struct
// field that is anywhere accessed through sync/atomic functions
// (atomic.LoadInt64(&d.top), ...) must be accessed that way everywhere —
// a plain read or write of the same field races with the atomic users
// (the top/bottom discipline of a lock-free deque). Fields of the typed
// atomic.Int64/Pointer family are immune by construction; this analyzer
// exists so a refactor back to plain fields plus call-site atomics
// cannot silently mix in unsynchronised accesses. Functions annotated
// //ltephy:coldpath (init/teardown that provably runs single-threaded)
// are skipped.
var AtomicCheck = &Analyzer{
	Name: "atomiccheck",
	Doc:  "flag plain accesses to fields that are elsewhere accessed via sync/atomic",
	Run:  runAtomicCheck,
}

func runAtomicCheck(pass *Pass) error {
	info := pass.Pkg.Info

	// Pass 1: fields used as &x.f arguments to sync/atomic functions, and
	// the selector nodes inside those calls (excluded from pass 2).
	atomicFields := map[types.Object]bool{}
	inAtomicCall := map[*ast.SelectorExpr]bool{}
	for _, fd := range funcDecls(pass.Pkg) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					atomicFields[s.Obj()] = true
					inAtomicCall[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: any other selector resolving to one of those fields is a
	// plain (racy) access.
	for _, fd := range funcDecls(pass.Pkg) {
		if pass.Pkg.HasDirective(pass.Prog.Fset, fd, DirColdPath) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicCall[sel] {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal || !atomicFields[s.Obj()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"plain access to field %s, which is accessed via sync/atomic elsewhere in the package; use the atomic API on every access",
				types.ExprString(sel))
			return true
		})
	}
	return nil
}

func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Package-level Load/Store/Add/Swap/CompareAndSwap functions take the
	// address of the word; typed atomics' methods manage their own field.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	name := fn.Name()
	for _, prefix := range []string{"Load", "Store", "Add", "And", "Or", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
