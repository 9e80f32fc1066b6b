package smuvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds a lexical lock-acquisition graph over the mutexes
// of the concurrency-heavy packages (wal, collector, agent, obs, and the
// command binaries) and reports two hazard classes:
//
//   - ordering cycles: mutex class A is acquired while B is held somewhere,
//     and B while A elsewhere — the classic ABBA deadlock; acquiring the
//     same mutex expression twice on one path is the degenerate self-cycle;
//   - blocking under a lock: a call that waits for an fsync
//     (wal.Log.Append/Commit/Sync/Close/Rotate/Reset, os.File.Sync on a
//     writable handle, syscall.Fdatasync, or the wal package's datasync
//     helper) while any mutex is held. The group-commit split of
//     PR 7 exists precisely so AppendAsync happens under the collector lock
//     and the fsync wait does not; holding a lock across Commit reintroduces
//     the serialization the split removed.
//
// Functions named *Locked are assumed to hold every mutex field of their
// receiver on entry (the repo's convention); an explicit Unlock inside them
// — the commitLocked release-around-fsync pattern — removes the hold, which
// is what lets the approved group-commit shape pass while a Lock held
// across the wait is flagged.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "flag mutex acquisition cycles and locks held across fsync-waiting " +
		"calls (wal.Log.Commit and friends) in wal, collector, agent, obs, " +
		"and the command binaries",
	Run: runLockOrder,
}

// lockOrderPackages are the package basenames under the rule.
var lockOrderPackages = map[string]bool{
	"wal": true, "collector": true, "agent": true, "obs": true,
}

// walBlockingMethods are the wal.Log methods that can wait on an fsync.
// AppendAsync is deliberately absent: it is the approved under-lock half of
// the group-commit split.
var walBlockingMethods = map[string]bool{
	"Append": true, "Commit": true, "Sync": true, "Close": true,
	"Rotate": true, "Reset": true,
}

const (
	evLock = iota
	evUnlock
	evBlock
)

// lockEvent is one lexical event inside a function body.
type lockEvent struct {
	pos   token.Pos
	kind  int
	class string // mutex class: "Type.field", "pkg.var", ...
	expr  string // source text of the mutex expression
	read  bool   // RLock/RUnlock
	desc  string // for evBlock: what blocks
}

// lockEdge records the first place class `from` was held while acquiring
// `to`.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	if !lockOrderPackages[pathBase(pass.Pkg.Path())] && pass.Pkg.Name() != "main" {
		return nil
	}
	var edges []lockEdge
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Closure bodies run on their own goroutine/path; analyze each
			// body separately so a goroutine's locks don't pollute the
			// spawner's held-set.
			bodies := []struct {
				body     *ast.BlockStmt
				implicit []lockEvent
			}{{fd.Body, implicitHolds(pass, fd)}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					bodies = append(bodies, struct {
						body     *ast.BlockStmt
						implicit []lockEvent
					}{fl.Body, nil})
				}
				return true
			})
			for _, b := range bodies {
				edges = append(edges, replayLockEvents(pass, file, fd, b.body, b.implicit)...)
			}
		}
	}
	reportLockCycles(pass, edges)
	return nil
}

// implicitHolds returns the locks a *Locked method holds on entry: every
// mutex field of its receiver.
func implicitHolds(pass *Pass, fd *ast.FuncDecl) []lockEvent {
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	recvName := names[0].Name
	obj := pass.TypesInfo.Defs[names[0]]
	if obj == nil {
		return nil
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var held []lockEvent
	for i := range st.NumFields() {
		f := st.Field(i)
		if isMutexType(f.Type()) {
			held = append(held, lockEvent{
				kind:  evLock,
				class: named.Obj().Name() + "." + f.Name(),
				expr:  recvName + "." + f.Name(),
			})
		}
	}
	return held
}

// replayLockEvents walks one body lexically, maintaining the held-set, and
// returns the acquisition edges it saw. Hazards local to the body
// (double-lock, blocking under a lock) are reported directly.
func replayLockEvents(pass *Pass, file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt, implicit []lockEvent) []lockEdge {
	events := collectLockEvents(pass, file, fd, body)
	if len(events) == 0 {
		return nil
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := append([]lockEvent(nil), implicit...)
	var edges []lockEdge
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			for _, h := range held {
				if h.expr == ev.expr {
					if !(h.read && ev.read) {
						pass.Reportf(ev.pos,
							"%s is locked while already held on this path: self-deadlock", ev.expr)
					}
					continue
				}
				edges = append(edges, lockEdge{from: h.class, to: ev.class, pos: ev.pos})
			}
			held = append(held, ev)
		case evUnlock:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].expr == ev.expr {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evBlock:
			if len(held) > 0 {
				names := make([]string, len(held))
				for i, h := range held {
					names[i] = h.expr
				}
				pass.Reportf(ev.pos,
					"%s can wait on an fsync while %s is held: every concurrent path through this lock serializes behind the disk — release the lock first (the AppendAsync/Commit group-commit split exists for this)",
					ev.desc, strings.Join(names, ", "))
			}
		}
	}
	return edges
}

// collectLockEvents gathers Lock/Unlock/blocking-call events of one body,
// skipping nested closures (analyzed separately) and deferred unlocks
// (which run at return and so never release mid-body).
func collectLockEvents(pass *Pass, file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	var defers [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			defers = append(defers, [2]token.Pos{d.Pos(), d.End()})
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		if pkgBase, typeName := recvNamed(fn); pkgBase == "sync" && (typeName == "Mutex" || typeName == "RWMutex") {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			class, expr := mutexClassExpr(pass, fd, sel.X)
			if class == "" {
				return true
			}
			switch fn.Name() {
			case "Lock", "RLock":
				if inRanges(defers, call.Pos()) {
					return true
				}
				events = append(events, lockEvent{pos: call.Pos(), kind: evLock, class: class, expr: expr, read: fn.Name() == "RLock"})
			case "Unlock", "RUnlock":
				if inRanges(defers, call.Pos()) {
					return true
				}
				events = append(events, lockEvent{pos: call.Pos(), kind: evUnlock, class: class, expr: expr, read: fn.Name() == "RUnlock"})
			case "TryLock":
				// TryLock never blocks; a success still holds the lock, but
				// the repo doesn't use it — ignore rather than model.
			}
			return true
		}
		if desc := blockingCallDesc(pass, file, call, fn); desc != "" && !inRanges(defers, call.Pos()) {
			events = append(events, lockEvent{pos: call.Pos(), kind: evBlock, desc: desc})
		}
		return true
	})
	return events
}

// blockingCallDesc classifies call as an fsync-waiting operation, or "".
func blockingCallDesc(pass *Pass, file *ast.File, call *ast.CallExpr, fn *types.Func) string {
	if fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
		switch pkg := fn.Pkg().Path(); {
		case pkg == "syscall" && fn.Name() == "Fdatasync":
			return "syscall.Fdatasync"
		case pathBase(pkg) == "wal" && fn.Name() == "datasync":
			return "wal.datasync"
		}
	}
	pkgBase, typeName := recvNamed(fn)
	switch {
	case pkgBase == "wal" && typeName == "Log" && walBlockingMethods[fn.Name()]:
		return "wal.Log." + fn.Name()
	case pkgBase == "os" && typeName == "File" && fn.Name() == "Sync":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && openedReadOnly(pass, file, sel.X) {
			return "" // fsync of a read-only handle (directory sync) is cheap metadata
		}
		return "os.File.Sync"
	}
	return ""
}

// mutexClassExpr names the mutex behind muExpr: its class (the declaring
// type and field for fields, the package or function for plain variables,
// the embedding type for promoted sync.Mutex) and its source text.
func mutexClassExpr(pass *Pass, fd *ast.FuncDecl, muExpr ast.Expr) (class, expr string) {
	mu := ast.Unparen(muExpr)
	expr = exprString(mu)
	if !strings.Contains(expr, "<expr@") {
		if sel, ok := mu.(*ast.SelectorExpr); ok {
			if base := namedTypeName(pass, sel.X); base != "" {
				return base + "." + sel.Sel.Name, expr
			}
			return "?." + sel.Sel.Name, expr
		}
		if id, ok := mu.(*ast.Ident); ok {
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return "", expr
			}
			if isMutexType(obj.Type()) {
				if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					return obj.Pkg().Name() + "." + id.Name, expr
				}
				return fd.Name.Name + "." + id.Name, expr
			}
			// Promoted embedded mutex: s.Lock() where s's type embeds
			// sync.Mutex.
			if base := namedTypeName(pass, mu); base != "" {
				return base + ".Mutex", expr + ".Mutex"
			}
		}
	}
	return "", expr
}

// namedTypeName returns the name of e's named type, behind pointers.
func namedTypeName(pass *Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// reportLockCycles finds strongly-connected components in the package-wide
// acquisition graph and reports each cycle once, anchored at its earliest
// edge.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	if len(edges) == 0 {
		return
	}
	adj := make(map[string]map[string]token.Pos)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]token.Pos)
		}
		if old, ok := adj[e.from][e.to]; !ok || e.pos < old {
			adj[e.from][e.to] = e.pos
		}
	}
	nodes := make([]string, 0, len(adj))
	seen := make(map[string]bool)
	for from, tos := range adj {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)
	comp := sccs(nodes, adj)
	for _, scc := range comp {
		selfLoop := len(scc) == 1 && adj[scc[0]][scc[0]] != 0
		if len(scc) < 2 && !selfLoop {
			continue
		}
		sort.Strings(scc)
		var pos token.Pos
		for _, a := range scc {
			for _, b := range scc {
				if p, ok := adj[a][b]; ok && (pos == 0 || p < pos) {
					pos = p
				}
			}
		}
		pass.Reportf(pos,
			"lock acquisition cycle among {%s}: these mutexes are taken in inconsistent order somewhere in this package, which can deadlock — pick one order and stick to it",
			strings.Join(scc, ", "))
	}
}

// sccs is Tarjan's algorithm over a deterministic node order; components
// with a single, self-loop-free node are returned too and filtered by the
// caller.
func sccs(nodes []string, adj map[string]map[string]token.Pos) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var out [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(adj[v]))
		for to := range adj[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return out
}
