package smuvet

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
	"strings"
)

// ShardMergeAnalyzer guards the parallel analysis engine's contract (PR 1):
// every concrete type implementing the package's Analyzer interface must
//
//  1. also implement ShardedAnalyzer (NewShard/Merge), so it cannot silently
//     drop a multi-worker Run or RunShards to one worker, and
//  2. appear in a []Analyzer table inside the package's tests — the
//     parallel-equivalence suite — so the sharded == sequential property is
//     actually exercised for it, and
//  3. if it is sketch-backed (PR 10: any struct field, directly or through a
//     same-package struct, typed from a package named "sketch"), appear in a
//     []Analyzer table built inside a test function whose name contains
//     "Equivalence" — the sketch-vs-exact tolerance suite — so its
//     approximation error is measured, not assumed.
//
// The analyzer activates in any package that declares both interfaces
// (today: internal/analysis). Types declared in _test.go files are exempt —
// tests build deliberately unshardable analyzers to cover the fallback path.
var ShardMergeAnalyzer = &Analyzer{
	Name: "shardmerge",
	Doc: "require every Analyzer implementation to implement ShardedAnalyzer " +
		"and to appear in the parallel-equivalence test table",
	Run: runShardMerge,
}

func runShardMerge(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	analyzerIface := localInterface(pass, "Analyzer")
	shardedIface := localInterface(pass, "ShardedAnalyzer")
	if analyzerIface == nil || shardedIface == nil {
		return nil
	}

	// Concrete named types declared outside test files that implement
	// Analyzer.
	type impl struct {
		name   string
		obj    types.Object
		pos    ast.Node
		sketch bool
	}
	var impls []impl
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if types.IsInterface(named) {
					continue
				}
				if !implements(named, analyzerIface) {
					continue
				}
				if !implements(named, shardedIface) {
					pass.Reportf(ts.Pos(),
						"%s implements Analyzer but not ShardedAnalyzer (NewShard/Merge): it silently drops multi-worker Run/RunShards to one worker",
						obj.Name())
				}
				impls = append(impls, impl{
					name: obj.Name(), obj: obj, pos: ts,
					sketch: sketchBacked(named, pass.Pkg),
				})
			}
		}
	}
	if len(impls) == 0 {
		return nil
	}

	// The equivalence table: the union of concrete element types of every
	// []Analyzer composite literal in the package's test files. Without test
	// files in the pass there is nothing to compare against, so the check is
	// skipped (the driver loads test variants whenever they exist).
	sliceOfAnalyzer := types.NewSlice(analyzerIface.obj.Type())
	tableTypes := make(map[string]bool)
	equivTableTypes := make(map[string]bool) // tables inside *Equivalence* functions
	sawTests, sawTable := false, false
	collect := func(n ast.Node, inEquiv bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[cl]
			if !ok || !types.Identical(tv.Type, sliceOfAnalyzer) {
				return true
			}
			sawTable = true
			for _, el := range cl.Elts {
				etv, ok := pass.TypesInfo.Types[el]
				if !ok || etv.Type == nil {
					continue
				}
				t := etv.Type
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					tableTypes[named.Obj().Name()] = true
					if inEquiv {
						equivTableTypes[named.Obj().Name()] = true
					}
				}
			}
			return true
		})
	}
	for _, file := range pass.Files {
		if !pass.InTestFile(file.Pos()) {
			continue
		}
		sawTests = true
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			collect(decl, ok && strings.Contains(fd.Name.Name, "Equivalence"))
		}
	}
	if !sawTests {
		return nil
	}
	if !sawTable {
		pass.Reportf(impls[0].pos.Pos(),
			"package declares Analyzer implementations but its tests build no []Analyzer table: the parallel-equivalence suite covers nothing")
		return nil
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].name < impls[j].name })
	for _, im := range impls {
		if !tableTypes[im.name] {
			pass.Reportf(im.pos.Pos(),
				"%s is missing from every []Analyzer table in this package's tests: add it to the parallel-equivalence battery so sharded == sequential is checked for it",
				im.name)
			continue
		}
		if im.sketch && !equivTableTypes[im.name] {
			pass.Reportf(im.pos.Pos(),
				"%s is sketch-backed but appears in no []Analyzer table built inside an Equivalence test function: add it to the sketch equivalence battery so its approximation error is measured against the exact path",
				im.name)
		}
	}
	return nil
}

// sketchBacked reports whether named's struct state includes a type from a
// package named "sketch" — directly, through pointers, containers, or
// same-package struct fields (one Named hop per visited type, cycle-safe).
// Such analyzers produce approximate results and must be covered by the
// sketch-vs-exact equivalence suite, not just the sharding one.
func sketchBacked(named *types.Named, pkg *types.Package) bool {
	visited := make(map[*types.Named]bool)
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		switch tt := t.(type) {
		case *types.Pointer:
			return walk(tt.Elem())
		case *types.Slice:
			return walk(tt.Elem())
		case *types.Array:
			return walk(tt.Elem())
		case *types.Map:
			return walk(tt.Key()) || walk(tt.Elem())
		case *types.Named:
			if p := tt.Obj().Pkg(); p != nil && path.Base(p.Path()) == "sketch" {
				return true
			}
			if visited[tt] || tt.Obj().Pkg() != pkg {
				return false
			}
			visited[tt] = true
			st, ok := tt.Underlying().(*types.Struct)
			if !ok {
				return false
			}
			for i := 0; i < st.NumFields(); i++ {
				if walk(st.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	return walk(named)
}

// localIface pairs the interface type with its defining object.
type localIface struct {
	obj   types.Object
	iface *types.Interface
}

// localInterface finds an interface named name declared at package scope in
// a non-test file.
func localInterface(pass *Pass, name string) *localIface {
	obj := pass.Pkg.Scope().Lookup(name)
	if obj == nil || pass.InTestFile(obj.Pos()) {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return &localIface{obj: obj, iface: iface}
}

// implements reports whether named (by value or pointer) satisfies li.
func implements(named *types.Named, li *localIface) bool {
	return types.Implements(named, li.iface) ||
		types.Implements(types.NewPointer(named), li.iface)
}
