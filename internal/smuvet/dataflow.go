package smuvet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow engine shared by the ownership
// and lifetime analyzers (aliasret, commitpair). The model is deliberately
// small:
//
//   - A *source* seeds one or more objects with a taint (aliasret: the decode
//     target; commitpair: the commit token).
//   - Taint propagates through assignments, short variable declarations, and
//     range statements, path-insensitively: any assignment anywhere in the
//     function propagates, whatever branch it sits on.
//   - Calls are propagation *barriers*: the result of f(x) is not assumed to
//     alias x. Only type conversions and the builtin append see through.
//     That single rule is what makes sanitizers work — `s.Clone()` returns a
//     clean value not because Clone is special-cased but because no call
//     result carries taint.
//   - Each taint remembers the innermost for/range statement enclosing its
//     source. Analyzers use that as the value's *lifetime scope*: storing a
//     frame-scoped value into anything declared outside the frame loop is a
//     retention.
//
// The engine is lexical and per-function; it does not follow taint through
// channels, closures that run later, or other functions. Those
// false-negative shapes are documented in DESIGN.md.

// taintInfo describes how an object became tainted.
type taintInfo struct {
	// src is the position of the source call.
	src token.Pos
	// scope is the innermost for/range statement enclosing the source, or
	// nil when the source sits directly in the function body. Values from a
	// loop-scoped source die when the loop advances.
	scope ast.Node
}

// valueFlow tracks which objects of one function are reached from a set of
// source positions.
type valueFlow struct {
	pass *Pass
	fd   *ast.FuncDecl
	// carries filters propagation by type: objects whose type cannot carry
	// the tracked property (e.g. an int cannot alias a buffer) are never
	// tainted. nil means every type carries.
	carries func(types.Type) bool
	taint   map[types.Object]taintInfo
	// seeds are the objects tainted directly by a source (as opposed to by
	// propagation). Analyzers may exempt them as store destinations: the
	// decode target itself is allowed to be long-lived scratch.
	seeds map[types.Object]bool
}

func newValueFlow(pass *Pass, fd *ast.FuncDecl, carries func(types.Type) bool) *valueFlow {
	return &valueFlow{
		pass:    pass,
		fd:      fd,
		carries: carries,
		taint:   make(map[types.Object]taintInfo),
		seeds:   make(map[types.Object]bool),
	}
}

// seedExpr taints the object behind e (its leftmost identifier) as reached
// from a source at pos.
func (vf *valueFlow) seedExpr(e ast.Expr, pos token.Pos) {
	obj := baseObject(vf.pass, e)
	if obj == nil {
		return
	}
	vf.seeds[obj] = true
	vf.taint[obj] = taintInfo{src: pos, scope: innermostLoop(vf.fd, pos)}
}

// seedObject taints obj directly.
func (vf *valueFlow) seedObject(obj types.Object, pos token.Pos) {
	if obj == nil {
		return
	}
	vf.seeds[obj] = true
	vf.taint[obj] = taintInfo{src: pos, scope: innermostLoop(vf.fd, pos)}
}

// propagate runs assignment/range propagation to a fixpoint.
func (vf *valueFlow) propagate() {
	// Each round can only add objects, and a function has finitely many;
	// the bound is pure paranoia.
	for range 64 {
		if !vf.propagateOnce() {
			return
		}
	}
}

func (vf *valueFlow) propagateOnce() bool {
	changed := false
	ast.Inspect(vf.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
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
				if info, ok := vf.infoFor(rhs); ok {
					changed = vf.mark(baseObject(vf.pass, lhs), info) || changed
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				switch {
				case len(n.Values) == len(n.Names):
					rhs = n.Values[i]
				case len(n.Values) == 1:
					rhs = n.Values[0]
				default:
					continue
				}
				if info, ok := vf.infoFor(rhs); ok {
					changed = vf.mark(vf.pass.TypesInfo.Defs[name], info) || changed
				}
			}
		case *ast.RangeStmt:
			if n.X == nil {
				return true
			}
			info, ok := vf.infoFor(n.X)
			if !ok {
				return true
			}
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					changed = vf.mark(vf.pass.TypesInfo.Defs[id], info) || changed
				}
			}
		}
		return true
	})
	return changed
}

func (vf *valueFlow) mark(obj types.Object, info taintInfo) bool {
	if obj == nil {
		return false
	}
	if vf.carries != nil && obj.Type() != nil && !vf.carries(obj.Type()) {
		return false
	}
	if _, ok := vf.taint[obj]; ok {
		return false
	}
	vf.taint[obj] = info
	return true
}

// infoFor reports whether e reads a tainted object, honoring call barriers:
// the subtree of a call expression is skipped unless the call is a type
// conversion or the builtin append, because a callee's result is not assumed
// to alias its arguments. This is exactly the sanitizer rule: a value
// laundered through Sample.Clone (or any other call) comes back clean.
func (vf *valueFlow) infoFor(e ast.Expr) (taintInfo, bool) {
	var found taintInfo
	ok := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, isConv := vf.pass.TypesInfo.Types[n.Fun]; isConv && tv.IsType() {
				return true // conversion aliases its operand
			}
			if b, isB := vf.pass.TypesInfo.Uses[calleeIdent(n)].(*types.Builtin); isB && b.Name() == "append" {
				for i, arg := range n.Args {
					// An ellipsis-expanded argument copies *elements*: if
					// the element type can't carry the property (append(buf,
					// essid...) copies bytes), the expansion launders it.
					if i > 0 && i == len(n.Args)-1 && n.Ellipsis.IsValid() && vf.carries != nil {
						if et := elemType(vf.pass, arg); et != nil && !vf.carries(et) {
							continue
						}
					}
					if info, argOK := vf.infoFor(arg); argOK {
						found, ok = info, true
						break
					}
				}
			}
			return false // any other call: result doesn't alias its args
		case *ast.Ident:
			obj := vf.pass.TypesInfo.Uses[n]
			if obj == nil {
				obj = vf.pass.TypesInfo.Defs[n]
			}
			if info, tainted := vf.taint[obj]; tainted {
				found, ok = info, true
				return false
			}
		}
		return true
	})
	return found, ok
}

// elemType returns the element type an ellipsis expansion of e copies, or
// nil when e isn't expandable.
func elemType(pass *Pass, e ast.Expr) types.Type {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return types.Typ[types.Byte]
		}
	case *types.Slice:
		return u.Elem()
	}
	return nil
}

// baseObject resolves the leftmost identifier of an lvalue-like chain
// (x, x.f, x[i], x[i:j], *x, &x, parenthesized forms) to its object. For a
// package-qualified name (pkg.Var) it resolves the named object itself.
func baseObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[t]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[t]
		case *ast.SelectorExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					return pass.TypesInfo.Uses[t.Sel]
				}
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// innermostLoop returns the innermost for/range statement of fd containing
// pos, or nil. ast.Inspect visits outer loops before inner ones, so the last
// match wins.
func innermostLoop(fd *ast.FuncDecl, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos < n.End() {
				best = n
			}
		}
		return true
	})
	return best
}

// recvNamed returns the basename of the defining package and the type name
// of fn's receiver, or two empty strings when fn is not a method. Pointer
// receivers and generic instantiations resolve to the underlying named type.
func recvNamed(fn *types.Func) (pkgBase, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", ""
	}
	return pathBase(obj.Pkg().Path()), obj.Name()
}

// deferRanges collects the source ranges of every defer statement in fd, so
// lexical analyzers can recognize "this happens at return, not here".
func deferRanges(fd *ast.FuncDecl) [][2]token.Pos {
	var rs [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			rs = append(rs, [2]token.Pos{d.Pos(), d.End()})
		}
		return true
	})
	return rs
}

func inRanges(rs [][2]token.Pos, pos token.Pos) bool {
	for _, r := range rs {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}
