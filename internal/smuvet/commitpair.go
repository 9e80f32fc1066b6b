package smuvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CommitPairAnalyzer enforces the group-commit durability pairing from
// DESIGN.md: wal.Log.AppendAsync makes a record *visible* but not *durable*;
// durability needs a later Commit(token) round. A commit token
// that is dropped — discarded at the call, or alive on some path that
// returns without passing it to Commit, returning it, or storing it for a
// later round — is a silent durability hole: the acknowledged record may not
// survive a crash.
//
// Per function, lexically after each AppendAsync call (or a call to
// a same-package function that returns such a token), every return must
// either mention the token, have a consumption (a call taking the token, a
// store to caller-visible memory, or a deferred commit) between the source
// and itself, or sit in an if-body guarding the source's own error result.
var CommitPairAnalyzer = &Analyzer{
	Name: "commitpair",
	Doc: "require every wal.Log.AppendAsync commit token to reach " +
		"Commit (or the caller) on all paths, including early " +
		"error returns",
	Run: runCommitPair,
}

// commitSource is one token-producing call site.
type commitSource struct {
	call   *ast.CallExpr
	errObj types.Object // the error result assigned alongside the token, if any
}

// commitGroup is the obligation attached to one token object: all sources
// assigning it, satisfied together.
type commitGroup struct {
	obj     types.Object
	sources []commitSource
}

// commitConsumption is one event that discharges (part of) an obligation.
type commitConsumption struct {
	pos      token.Pos
	group    token.Pos // the group's seed position (taintInfo.src)
	deferred bool
}

func runCommitPair(pass *Pass) error {
	// Phase 1: summarize which package-local functions return a commit
	// token, so the obligation follows the token across one call level
	// (collector.accept appends under the lock; its caller commits).
	summaries := make(map[types.Object]commitTokenSummary)
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		if idx, ok := tokenReturnIndex(pass, fd, summaries); ok {
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				summaries[obj] = commitTokenSummary{resultIdx: idx, results: resultCount(pass, fd)}
			}
		}
	})
	// Phase 2: check every function against direct and summarized sources.
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		checkCommitPair(pass, fd, summaries)
	})
	return nil
}

type commitTokenSummary struct {
	resultIdx int
	results   int
}

func forEachFunc(pass *Pass, fn func(*ast.FuncDecl)) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// commitTokenCall classifies call as a token source. It returns the result
// index holding the token, the index of the error result (-1 if none), and
// whether call is a source at all.
func commitTokenCall(pass *Pass, call *ast.CallExpr, summaries map[types.Object]commitTokenSummary) (tokenIdx, errIdx int, ok bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return 0, -1, false
	}
	if pkgBase, typeName := recvNamed(fn); pkgBase == "wal" && typeName == "Log" {
		if fn.Name() == "AppendAsync" {
			return 1, 2, true
		}
	}
	if s, found := summaries[fn]; found {
		errIdx = -1
		if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Results().Len() == s.results && s.results > 0 {
			last := sig.Results().At(s.results - 1).Type()
			if named, isNamed := last.(*types.Named); isNamed && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				errIdx = s.results - 1
			}
		}
		return s.resultIdx, errIdx, true
	}
	return 0, -1, false
}

// tokenReturnIndex runs the direct-source flow over fd and reports the first
// return-tuple index through which a commit token escapes to the caller.
func tokenReturnIndex(pass *Pass, fd *ast.FuncDecl, summaries map[types.Object]commitTokenSummary) (int, bool) {
	groups, vf := collectCommitGroups(pass, fd, summaries, true)
	if len(groups) == 0 {
		return 0, false
	}
	lits := funcLitRanges(fd)
	idx, found := 0, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || inRanges(lits, ret.Pos()) {
			return true
		}
		for i, res := range ret.Results {
			if _, tainted := vf.infoFor(res); tainted {
				idx, found = i, true
				return false
			}
		}
		return true
	})
	return idx, found
}

func resultCount(pass *Pass, fd *ast.FuncDecl) int {
	if fd.Type.Results == nil {
		return 0
	}
	n := 0
	for _, f := range fd.Type.Results.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// collectCommitGroups finds the token sources of fd, seeds a value flow with
// their token objects, and groups sources sharing a token variable.
// directOnly restricts to AppendAsync and reports nothing (the
// summary phase must not duplicate phase-2 diagnostics).
func collectCommitGroups(pass *Pass, fd *ast.FuncDecl, summaries map[types.Object]commitTokenSummary, directOnly bool) (map[token.Pos]*commitGroup, *valueFlow) {
	vf := newValueFlow(pass, fd, nil)
	groups := make(map[token.Pos]*commitGroup)
	lits := funcLitRanges(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || inRanges(lits, n.Pos()) {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			var tokenIdx, errIdx int
			if directOnly {
				fn := calleeFunc(pass, call)
				if fn == nil {
					return true
				}
				pkgBase, typeName := recvNamed(fn)
				if pkgBase != "wal" || typeName != "Log" || fn.Name() != "AppendAsync" {
					return true
				}
				tokenIdx, errIdx = 1, 2
			} else if ti, ei, ok := commitTokenCall(pass, call, summaries); ok {
				tokenIdx, errIdx = ti, ei
			} else {
				return true
			}
			if tokenIdx >= len(n.Lhs) {
				return true
			}
			tokID, _ := n.Lhs[tokenIdx].(*ast.Ident)
			if tokID == nil {
				return true
			}
			if tokID.Name == "_" {
				if !directOnly {
					pass.Reportf(call.Pos(),
						"commit token from %s discarded: without a later Commit the appended record is not durable",
						exprString(call.Fun))
				}
				return true
			}
			obj := pass.TypesInfo.Defs[tokID]
			if obj == nil {
				obj = pass.TypesInfo.Uses[tokID]
			}
			if obj == nil {
				return true
			}
			var errObj types.Object
			if errIdx >= 0 && errIdx < len(n.Lhs) {
				if eid, ok := n.Lhs[errIdx].(*ast.Ident); ok && eid.Name != "_" {
					errObj = pass.TypesInfo.Defs[eid]
					if errObj == nil {
						errObj = pass.TypesInfo.Uses[eid]
					}
				}
			}
			g := groups[tokenGroupKey(vf, obj, call)]
			if g == nil {
				g = &commitGroup{obj: obj}
				vf.seedObject(obj, call.Pos())
				groups[call.Pos()] = g
			}
			g.sources = append(g.sources, commitSource{call: call, errObj: errObj})
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok || directOnly || inRanges(lits, n.Pos()) {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil {
				return true
			}
			if pkgBase, typeName := recvNamed(fn); pkgBase == "wal" && typeName == "Log" && fn.Name() == "AppendAsync" {
				pass.Reportf(call.Pos(),
					"result of %s discarded: the commit token is the only handle that makes the append durable",
					exprString(call.Fun))
			}
		}
		return true
	})
	vf.propagate()
	return groups, vf
}

// tokenGroupKey returns the existing group seed position for obj, or the
// call's own position for a new group.
func tokenGroupKey(vf *valueFlow, obj types.Object, call *ast.CallExpr) token.Pos {
	if info, ok := vf.taint[obj]; ok {
		return info.src
	}
	return call.Pos()
}

func checkCommitPair(pass *Pass, fd *ast.FuncDecl, summaries map[types.Object]commitTokenSummary) {
	groups, vf := collectCommitGroups(pass, fd, summaries, false)
	if len(groups) == 0 {
		return
	}
	lits := funcLitRanges(fd)
	defers := deferRanges(fd)

	// Consumption events: any call taking the token, or a store of the
	// token into caller-visible memory (field, global, pointed-to param).
	var consumptions []commitConsumption
	sourcePos := make(map[token.Pos]bool)
	for _, g := range groups {
		for _, s := range g.sources {
			sourcePos[s.call.Pos()] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sourcePos[n.Pos()] {
				return true
			}
			for _, arg := range n.Args {
				if info, ok := vf.infoFor(arg); ok {
					consumptions = append(consumptions, commitConsumption{
						pos: n.End(), group: info.src, deferred: inRanges(defers, n.Pos()),
					})
					break
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				default:
					continue
				}
				info, ok := vf.infoFor(rhs)
				if !ok {
					continue
				}
				obj := baseObject(pass, lhs)
				if obj == nil {
					continue
				}
				// A store outside the function's own locals keeps the token
				// reachable for a later commit round.
				if obj.Pos() < fd.Body.Pos() || obj.Pos() >= fd.Body.End() {
					consumptions = append(consumptions, commitConsumption{
						pos: n.End(), group: info.src, deferred: inRanges(defers, n.Pos()),
					})
				}
			}
		}
		return true
	})

	seeds := make([]token.Pos, 0, len(groups))
	for seed := range groups {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	reported := make(map[token.Pos]bool)
	for _, seed := range seeds {
		g := groups[seed]
		deferredOK := false
		any := false
		for _, c := range consumptions {
			if c.group != seed {
				continue
			}
			any = true
			if c.deferred {
				deferredOK = true
			}
		}
		if deferredOK {
			continue
		}
		if !any && !tokenReturned(pass, fd, vf, seed, lits) {
			for _, s := range g.sources {
				if !reported[s.call.Pos()] {
					reported[s.call.Pos()] = true
					pass.Reportf(s.call.Pos(),
						"commit token from %s is never passed to Commit, returned, or stored: the appended record is not made durable on any path",
						exprString(s.call.Fun))
				}
			}
			continue
		}
		for _, s := range g.sources {
			checkReturnsAfter(pass, fd, vf, seed, s, consumptions, lits, reported)
		}
	}
}

// tokenReturned reports whether any return outside closures carries the
// group's token.
func tokenReturned(pass *Pass, fd *ast.FuncDecl, vf *valueFlow, seed token.Pos, lits [][2]token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || inRanges(lits, ret.Pos()) {
			return true
		}
		for _, res := range ret.Results {
			if info, ok := vf.infoFor(res); ok && info.src == seed {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkReturnsAfter flags returns lexically after the source that leave the
// token unconsumed on their path.
func checkReturnsAfter(pass *Pass, fd *ast.FuncDecl, vf *valueFlow, seed token.Pos, src commitSource, consumptions []commitConsumption, lits [][2]token.Pos, reported map[token.Pos]bool) {
	after := src.call.End()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= after || inRanges(lits, ret.Pos()) || reported[ret.Pos()] {
			return true
		}
		for _, res := range ret.Results {
			if info, ok := vf.infoFor(res); ok && info.src == seed {
				return true
			}
		}
		for _, c := range consumptions {
			// <= ret.End(): a consumption inside the return statement itself
			// (return l.Commit(seq)) is on this path.
			if c.group == seed && c.pos > after && c.pos <= ret.End() {
				return true
			}
		}
		if src.errObj != nil && inErrGuard(pass, fd, ret, src.errObj) {
			return true
		}
		reported[ret.Pos()] = true
		pass.Reportf(ret.Pos(),
			"returns without committing the token from %s (line %d): on this path the appended record is never fsynced — call Commit or hand the token out before returning",
			exprString(src.call.Fun), pass.Fset.Position(src.call.Pos()).Line)
		return true
	})
}

// inErrGuard reports whether ret sits inside the body (not else) of an if
// statement whose condition mentions errObj — the append-failed path, where
// there is no record to commit.
func inErrGuard(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt, errObj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Body == nil {
			return true
		}
		if ifs.Body.Pos() <= ret.Pos() && ret.Pos() < ifs.Body.End() && mentions(pass, ifs.Cond, errObj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcLitRanges collects the source ranges of closures, whose returns belong
// to the closure rather than the enclosing function.
func funcLitRanges(fd *ast.FuncDecl) [][2]token.Pos {
	var rs [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			rs = append(rs, [2]token.Pos{fl.Pos(), fl.End()})
		}
		return true
	})
	return rs
}
