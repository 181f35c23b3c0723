package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// syncpointScope lists the packages whose host-side shared state is
// governed by the Sync discipline: the open-system server loop
// (service.Serve) and the sharded deployment it runs as an executor keep
// queue/gate/counter state in host memory, which is only sound because
// every mutation happens on a simulated CPU that has passed CPU.Sync (it
// holds the global minimum (time, ID), so host state evolves in
// nondecreasing virtual time at any host worker count).
var syncpointScope = map[string]bool{
	"hrwle/internal/service": true,
	"hrwle/internal/shard":   true,
}

// SyncViol is one shared-state mutation recorded in a function summary.
type SyncViol struct {
	Pos token.Pos
	Msg string
}

// SyncSummaryFact summarizes a function for the syncpoint traversal: the
// shared-state mutations and scope-package callees that appear BEFORE the
// function's first CPU.Sync call (all of them, if it never calls Sync).
// Anything positioned after a Sync is covered — the CPU holds the floor —
// and a covered call site certifies the callee's whole continuation, so
// covered regions need no summary. Exported for every declared function so
// a server loop's bare calls into another scope package are checked across
// packages.
type SyncSummaryFact struct {
	BareMuts    []SyncViol
	BareCallees []*types.Func
}

func (*SyncSummaryFact) AFact() {}

// NewSyncpoint returns the syncpoint analyzer. Host-visible shared state
// in the service and shard packages (the dispatch queue, shard gates,
// per-shard counters) must only be mutated under CPU.Sync coverage: on a
// path, starting from the server loop handed to machine.Machine.Run (the
// one in service.Serve), that has passed a c.Sync() call. Executors,
// including the sharded deployment, are called from that loop after its
// Sync, so their whole continuation is covered. The analyzer walks the
// static call graph from each Run loop, following only call edges that
// appear before the caller's first Sync, and reports every shared
// mutation reachable that way — state touched before the loop
// synchronizes is exactly the invariant violation that breaks run
// determinism across host worker counts. Coverage is per-path and does
// not expire: a Sync anywhere earlier on the call path certifies the
// continuation (the counter-after-critical-section idiom), so
// intra-function reorders below a first Sync are out of scope here and
// left to the determinism CI diff.
func NewSyncpoint() *Analyzer {
	a := &Analyzer{
		Name: "syncpoint",
		Doc:  "host-side shared state in internal/service and internal/shard is mutated only under CPU.Sync coverage, traced from the machine.Run server loops",
	}
	a.Run = runSyncpoint
	return a
}

func runSyncpoint(pass *Pass) error {
	if !syncpointScope[pass.Pkg.Path()] {
		return nil
	}
	// Phase 1: summarize and export every declared function.
	local := make(map[*types.Func]*SyncSummaryFact)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sum := summarizeSync(pass, fd.Body)
			local[obj] = sum
			pass.ExportObjectFact(obj, sum)
		}
	}
	// Phase 2: traverse from every server loop handed to machine.Run.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !IsNamed(pass.FuncOf(call), machinePkgPath, "Run") || len(call.Args) < 2 {
				return true
			}
			switch loop := ast.Unparen(call.Args[1]).(type) {
			case *ast.FuncLit:
				sum := summarizeSync(pass, loop.Body)
				reachSync(pass, sum, local)
			case *ast.Ident:
				if fn, ok := pass.TypesInfo.Uses[loop].(*types.Func); ok {
					reachSync(pass, &SyncSummaryFact{BareCallees: []*types.Func{fn}}, local)
				}
			case *ast.SelectorExpr:
				if fn, ok := pass.TypesInfo.Uses[loop.Sel].(*types.Func); ok {
					reachSync(pass, &SyncSummaryFact{BareCallees: []*types.Func{fn}}, local)
				}
			}
			return true
		})
	}
	return nil
}

// summarizeSync records the shared mutations and scope-package callees of
// one body that appear before the body's first CPU.Sync call. Nested
// function literals run on their own schedule (tracer callbacks,
// controller hooks) and are excluded from the enclosing summary.
func summarizeSync(pass *Pass, body *ast.BlockStmt) *SyncSummaryFact {
	firstSync := token.Pos(-1)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if IsNamed(pass.FuncOf(call), machinePkgPath, "Sync") {
				if firstSync < 0 || call.Pos() < firstSync {
					firstSync = call.Pos()
				}
			}
		}
		return true
	})
	bare := func(pos token.Pos) bool { return firstSync < 0 || pos < firstSync }

	sum := &SyncSummaryFact{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := pass.FuncOf(n)
			if fn == nil || !bare(n.Pos()) {
				return true
			}
			if fn.Pkg() != nil && syncpointScope[fn.Pkg().Path()] {
				sum.BareCallees = append(sum.BareCallees, fn)
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE || !bare(n.Pos()) {
				return true
			}
			for _, lhs := range n.Lhs {
				if name, ok := sharedTarget(pass, lhs); ok {
					sum.BareMuts = append(sum.BareMuts, SyncViol{
						Pos: n.Pos(),
						Msg: "assigns host-side shared state " + name,
					})
				}
			}
		case *ast.IncDecStmt:
			if !bare(n.Pos()) {
				return true
			}
			if name, ok := sharedTarget(pass, n.X); ok {
				sum.BareMuts = append(sum.BareMuts, SyncViol{
					Pos: n.Pos(),
					Msg: "updates host-side shared state " + name,
				})
			}
		}
		return true
	})
	return sum
}

// sharedTarget reports whether an assignment target is host-visible shared
// state: the chain reaches its root through a pointer dereference (field
// of a pointer, explicit *p, slice or map element — all aliasable beyond
// this frame) or roots at a package-level variable. A bare local and a
// field chain inside a local value are frame-private and exempt.
func sharedTarget(pass *Pass, lhs ast.Expr) (string, bool) {
	crossed := false
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			crossed = true
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					crossed = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					crossed = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if !ok {
				if v, ok = pass.TypesInfo.Defs[x].(*types.Var); !ok {
					return "", false
				}
			}
			if v.Parent() == pass.Pkg.Scope() {
				return v.Name(), true
			}
			if crossed {
				return v.Name(), true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// reachSync walks bare (pre-Sync) call edges from a server loop's summary
// and reports every shared mutation reachable without passing a Sync.
func reachSync(pass *Pass, root *SyncSummaryFact, local map[*types.Func]*SyncSummaryFact) {
	for _, v := range root.BareMuts {
		pass.Report(v.Pos, "server loop %s before its first CPU.Sync: host state must only change while the CPU holds the virtual-time floor", v.Msg)
	}
	visited := make(map[*types.Func]bool)
	work := append([]*types.Func(nil), root.BareCallees...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[fn] {
			continue
		}
		visited[fn] = true
		sum, ok := local[fn]
		if !ok {
			var fact SyncSummaryFact
			if !pass.ImportObjectFact(fn, &fact) {
				continue
			}
			sum = &fact
		}
		for _, v := range sum.BareMuts {
			pass.Report(v.Pos, "%s with no CPU.Sync on the path from the server loop (via %s): host state must only change while the CPU holds the virtual-time floor", v.Msg, fn.Name())
		}
		work = append(work, sum.BareCallees...)
	}
}
