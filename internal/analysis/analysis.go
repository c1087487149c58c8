// Package analysis is a self-contained static-analysis framework and a
// suite of analyzers that mechanically enforce this repository's
// load-bearing invariants: arena Mark/Release pairing, arena-scratch
// lifetime (no escapes past Release), an allocation-free hot path
// reachable from Stage.Run/RunBatch, serial-vs-parallel determinism, and
// consistent atomic access in the scheduler.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built purely on the standard
// library (go/ast, go/types, go/importer) so the module carries no
// external dependency. Packages are loaded with `go list -json -deps`
// and type-checked from source in dependency order; the standard library
// is imported through the compiler's export data (falling back to source
// when unavailable).
//
// # Annotation convention
//
// Three comment directives tune the analyzers at intentional boundaries;
// each must carry a reason on the same comment block:
//
//   - //ltephy:coldpath — on a function: the function is not part of the
//     steady-state hot path (memoised table construction, one-time
//     warm-up, guard code). All analyzers skip the function and the
//     hot-path call-graph walk does not traverse through it.
//   - //ltephy:owns-scratch — on a function: the function intentionally
//     lets arena memory outlive its own frame (job-lifetime carves,
//     paired acquire/release helpers). arenapair and arenaescape skip it;
//     the enclosing Mark/Release discipline is the caller's contract.
//   - //ltephy:alloc-ok — on the line of (or the line above) a heap
//     allocation inside a hot function: the allocation is sanctioned
//     (decoded payload bits escape the job by design; nil-arena
//     convenience fallbacks). Only hotpathalloc consults it.
//   - //ltephy:hotpath — on a function: an additional hot-path root for
//     hotpathalloc beyond the Stage.Run/RunBatch shape (the fronthaul
//     ingest loop's decode→admit→dispatch functions). The function and
//     everything reachable from it must satisfy the zero-alloc rule and,
//     for blockingcall, must never block inside the subframe budget.
//   - //ltephy:blocking-ok — on a function: its own blocking operations
//     are audited and sanctioned (bounded uncontended critical sections
//     like the deque mutex, transport-paced ingest reads). blockingcall
//     skips the function's body but still traverses its callees.
//   - //ltephy:spawn-point — on a function: a goroutine lifecycle point.
//     spawncheck requires every `go` statement to sit in one, and still
//     demands a provable join (WaitGroup Add/Done bracket or a result
//     channel the spawner receives from).
//   - //ltephy:cross-worker-ok — on a function: its closures are allowed
//     to carry arena-backed memory to other workers (the audited turbo
//     window fan-out, whose windows write disjoint slices under a
//     completion counter). crossarena skips the function.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one invariant checker. Run is invoked once per
// loaded package with a Pass giving access to the syntax, type
// information and the whole program (for cross-package analyses like the
// hot-path call-graph walk).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries the inputs of one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Package is one type-checked package: syntax plus types.Info.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives caches parsed //ltephy: annotations, built lazily.
	dirOnce    sync.Once
	funcDirs   map[*ast.FuncDecl]map[string]bool
	allocOK    map[int]bool // file-set line numbers carrying ltephy:alloc-ok
	allocOKSet bool
}

// Program is the full set of loaded module packages sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// Shared cross-function caches, each built at most once per load and
	// shared by every analyzer (the lint wall-time budget depends on it).
	cgOnce    sync.Once
	cg        *CallGraph
	hotOnce   sync.Once
	hot       *Reach // reachable from a stage root
	lockOnce  sync.Once
	lockFacts *lockOrderFacts
}

// PackageOf returns the loaded package with the given import path, or nil.
func (prog *Program) PackageOf(path string) *Package {
	for _, p := range prog.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// Directive names recognised on function declarations.
const (
	DirColdPath    = "coldpath"
	DirOwnsScratch = "owns-scratch"
	DirAllocOK     = "alloc-ok"
	DirHotPath     = "hotpath"
	DirBlockingOK  = "blocking-ok"
	DirSpawnPoint  = "spawn-point"
	DirCrossWorker = "cross-worker-ok"
)

// funcDirectives is the set of directive names attached to function
// declarations (as opposed to line-level ones like alloc-ok).
var funcDirectives = map[string]bool{
	DirColdPath:    true,
	DirOwnsScratch: true,
	DirHotPath:     true,
	DirBlockingOK:  true,
	DirSpawnPoint:  true,
	DirCrossWorker: true,
}

const dirPrefix = "//ltephy:"

// parseDirectives scans every comment in the package once, recording
// function-level directives (from doc comments) and the lines carrying
// ltephy:alloc-ok.
func (p *Package) parseDirectives(fset *token.FileSet) {
	p.dirOnce.Do(func() {
		p.funcDirs = map[*ast.FuncDecl]map[string]bool{}
		p.allocOK = map[int]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, dirPrefix) {
						continue
					}
					name := strings.TrimPrefix(text, dirPrefix)
					if i := strings.IndexAny(name, " \t"); i >= 0 {
						name = name[:i]
					}
					if name == DirAllocOK {
						// Suppresses an allocation on the same line or the
						// line directly below (directive-on-its-own-line).
						line := fset.Position(c.Pos()).Line
						p.allocOK[line] = true
						p.allocOK[line+1] = true
					}
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, dirPrefix) {
						continue
					}
					name := strings.TrimPrefix(text, dirPrefix)
					if i := strings.IndexAny(name, " \t"); i >= 0 {
						name = name[:i]
					}
					if funcDirectives[name] {
						m := p.funcDirs[fd]
						if m == nil {
							m = map[string]bool{}
							p.funcDirs[fd] = m
						}
						m[name] = true
					}
				}
			}
		}
	})
}

// HasDirective reports whether fn carries the named function directive.
func (p *Package) HasDirective(fset *token.FileSet, fn *ast.FuncDecl, name string) bool {
	p.parseDirectives(fset)
	return p.funcDirs[fn][name]
}

// AllocOKLine reports whether the given line is covered by a
// ltephy:alloc-ok directive.
func (p *Package) AllocOKLine(fset *token.FileSet, pos token.Pos) bool {
	p.parseDirectives(fset)
	return p.allocOK[fset.Position(pos).Line]
}

// RunAnalyzers runs each analyzer over every package the filter admits
// and returns the diagnostics sorted by position. filter may be nil
// (all packages).
func RunAnalyzers(prog *Program, analyzers []*Analyzer, filter func(a *Analyzer, pkg *Package) bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	var mu sync.Mutex
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			if filter != nil && !filter(a, pkg) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Prog:     prog,
				Pkg:      pkg,
				Report: func(d Diagnostic) {
					mu.Lock()
					diags = append(diags, d)
					mu.Unlock()
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// --- shared type helpers -------------------------------------------------

// isNamed reports whether t (after pointer indirection) is the named type
// pkgName.typeName. Matching is by package *name* and type name rather
// than full import path so the same analyzers run against both the real
// tree and the testdata fixtures' stub packages.
func isNamed(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// IsArena reports whether t is workspace.Arena or *workspace.Arena.
func IsArena(t types.Type) bool { return isNamed(t, "workspace", "Arena") }

// IsArenaMark reports whether t is workspace.Mark.
func IsArenaMark(t types.Type) bool { return isNamed(t, "workspace", "Mark") }

// arenaMethodCall reports whether call is a method call on an Arena
// receiver, returning the method name and the receiver expression.
func arenaMethodCall(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	tv, found := info.Types[sel.X]
	if !found || !IsArena(tv.Type) {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// IsArenaAllocCall reports whether call obtains a scratch slice from an
// Arena: a method on Arena whose single result is a slice (Complex,
// Float, Bytes today — any future typed stack matches automatically), or
// a workspace function taking the Arena first that returns one — the
// generic carve workspace.Floats[F](ws, n) by which width-generic kernels
// draw their planes.
func IsArenaAllocCall(info *types.Info, call *ast.CallExpr) bool {
	if _, _, ok := arenaMethodCall(info, call); !ok && !isWorkspaceCarve(info, call) {
		return false
	}
	tv, found := info.Types[call]
	if !found {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}

// isWorkspaceCarve reports whether call is to a function of the workspace
// package whose first parameter is the Arena.
func isWorkspaceCarve(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "workspace" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && sig.Params().Len() > 0 && IsArena(sig.Params().At(0).Type())
}

// exprKey renders an expression to a stable identity string for matching
// receivers across Mark/Release sites. Identifiers resolve through the
// type info so shadowing is handled; other expressions fall back to
// their printed form.
func exprKey(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return fmt.Sprintf("obj:%p", obj)
		}
	}
	return "expr:" + types.ExprString(e)
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
