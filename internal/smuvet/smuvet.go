// Package smuvet is the repo's domain-specific static-analysis framework: a
// small, dependency-free mirror of the golang.org/x/tools/go/analysis API
// (which this module cannot vendor) plus the analyzers that turn the
// codebase's soak-tested invariants into compile-time gates:
//
//   - aliasret: values aliasing a zero-copy decode frame buffer must not be
//     stored into memory that outlives the frame without a Clone.
//   - closeerr: Close/Sync results on writable files in the durability
//     packages (wal, agent, collector, trace) and the command binaries must
//     be checked.
//   - commitpair: every wal.Log.AppendAsync commit token must reach
//     Commit (or the caller) on all paths.
//   - determinism: no wall clock, global math/rand, or map-iteration-order
//     dependent output inside the simulation and analysis packages.
//   - guardedby: struct fields annotated `// guarded by mu` may only be
//     accessed where the mutex is visibly held.
//   - lockorder: no mutex acquisition cycles, no lock held across an
//     fsync-waiting call.
//   - shardmerge: every Analyzer implementation must appear in the
//     parallel-equivalence test table, and a sketch-backed one in the
//     sketch equivalence battery.
//
// The ownership/lifetime analyzers (aliasret, commitpair) share the
// intraprocedural dataflow engine in dataflow.go.
//
// A finding can be suppressed at a specific site with
//
//	//smuvet:allow <analyzer>[,<analyzer>...] -- <reason>
//
// on the flagged line, the line above it, or in the enclosing function's doc
// comment. The reason is mandatory; a malformed allow comment is itself a
// diagnostic (pseudo-analyzer "allow"), and an allow that suppresses zero
// diagnostics in a run is reported as stale (pseudo-analyzer "stale"; list
// "stale" among its analyzers to keep a deliberately dormant allow).
package smuvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer closely enough that porting to the
// real framework is mechanical should the dependency become available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is the one-paragraph description shown by `smuvet -help`.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers whose
// invariants target shipped code (determinism, guardedby, closeerr) skip
// such positions; shardmerge instead uses them to find the equivalence
// table.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full analyzer suite sorted by name, so -list/-help output
// and diagnostic ordering are stable.
func All() []*Analyzer {
	return []*Analyzer{
		AliasRetAnalyzer,
		CloseErrAnalyzer,
		CommitPairAnalyzer,
		DeterminismAnalyzer,
		GuardedByAnalyzer,
		LockOrderAnalyzer,
		ShardMergeAnalyzer,
	}
}

// allowRe matches a well-formed suppression comment.
var allowRe = regexp.MustCompile(`^//smuvet:allow\s+([a-z][a-z0-9]*(?:\s*,\s*[a-z][a-z0-9]*)*)\s+--\s+\S`)

// allowPrefix is how every suppression attempt starts, well-formed or not.
const allowPrefix = "//smuvet:allow"

// allowEntry is one //smuvet:allow comment. Line entries cover their own
// line and the line below; entries lifted from a function doc comment
// additionally cover the whole body. used tracks whether the entry
// suppressed anything, for stale detection.
type allowEntry struct {
	pos              token.Pos
	file             string
	line             int
	names            map[string]bool
	funcPos, funcEnd token.Pos // non-zero when the comment is a func doc
	used             bool
}

// allowIndex resolves suppression comments for one package.
type allowIndex struct {
	fset    *token.FileSet
	entries []*allowEntry
	// byLine maps file -> line -> the entries written on that line.
	byLine map[string]map[int][]*allowEntry
	// malformed records allow comments missing the `-- reason` part.
	malformed []token.Pos
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ai := &allowIndex{fset: fset, byLine: make(map[string]map[int][]*allowEntry)}
	byPos := make(map[token.Pos]*allowEntry)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllow(c.Text)
				if names == nil {
					continue
				}
				if !ok {
					ai.malformed = append(ai.malformed, c.Pos())
					continue
				}
				pos := fset.Position(c.Pos())
				e := &allowEntry{pos: c.Pos(), file: pos.Filename, line: pos.Line, names: names}
				ai.entries = append(ai.entries, e)
				byPos[c.Pos()] = e
				lines := ai.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*allowEntry)
					ai.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], e)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if e := byPos[c.Pos()]; e != nil {
					e.funcPos, e.funcEnd = fd.Body.Pos(), fd.Body.End()
				}
			}
		}
	}
	return ai
}

// parseAllow extracts the analyzer names from an allow comment. The second
// result is false when the comment is an allow attempt but malformed
// (missing names or the mandatory `-- reason`); a (nil, true) return means
// the comment is not an allow comment at all.
func parseAllow(text string) (map[string]bool, bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, true
	}
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		return map[string]bool{}, false
	}
	names := make(map[string]bool)
	for _, n := range strings.Split(m[1], ",") {
		names[strings.TrimSpace(n)] = true
	}
	return names, true
}

// suppressed reports whether d is covered by an allow comment, marking
// every entry that covers it as used.
func (ai *allowIndex) suppressed(d Diagnostic) bool {
	hit := false
	pos := ai.fset.Position(d.Pos)
	if lines := ai.byLine[pos.Filename]; lines != nil {
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, e := range lines[line] {
				if e.names[d.Analyzer] {
					e.used = true
					hit = true
				}
			}
		}
	}
	for _, e := range ai.entries {
		if e.funcEnd != 0 && e.names[d.Analyzer] && e.funcPos <= d.Pos && d.Pos < e.funcEnd {
			e.used = true
			hit = true
		}
	}
	return hit
}

// staleDiagnostics reports allow entries that suppressed nothing. An entry
// is judged only when every analyzer it names actually ran (so a partial
// -run invocation can't call a live allow stale); naming "stale" among the
// analyzers keeps a deliberately dormant allow.
func (ai *allowIndex) staleDiagnostics(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range ai.entries {
		if e.used || e.names["stale"] || len(e.names) == 0 {
			continue
		}
		judgeable := true
		for n := range e.names {
			if !ran[n] {
				judgeable = false
				break
			}
		}
		if !judgeable {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Analyzer: "stale",
			Message: "stale smuvet:allow: it suppressed no diagnostic in this run — delete it, " +
				"or add 'stale' to its analyzer list if it guards a known-dormant case",
		})
	}
	return out
}

// RunAnalyzers applies analyzers to pkg, filters findings through the
// package's allow comments, and returns the surviving diagnostics sorted by
// position. Malformed allow comments are reported under the pseudo-analyzer
// name "allow".
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ai := buildAllowIndex(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ai.suppressed(d) {
			kept = append(kept, d)
		}
	}
	for _, pos := range ai.malformed {
		kept = append(kept, Diagnostic{
			Pos:      pos,
			Analyzer: "allow",
			Message:  "malformed smuvet:allow comment: want //smuvet:allow <analyzer>[,<analyzer>] -- <reason>",
		})
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, d := range ai.staleDiagnostics(ran) {
		// A stale report is itself suppressible (//smuvet:allow stale on or
		// above the comment's line).
		if !ai.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// enclosingFunc returns the innermost FuncDecl whose body contains pos.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && fd.Body.Pos() <= pos && pos < fd.Body.End() {
				return fd
			}
		}
	}
	return nil
}

// exprString renders a (simple) expression as source-like text, for
// comparing lock receivers against field-access bases. Anything beyond
// identifier/selector/star/index/paren chains renders as a position-tagged
// opaque string, which simply never matches.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<expr@%d>", e.Pos())
	}
}
