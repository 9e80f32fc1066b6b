// Package analysis is a smuvet shardmerge fixture: it declares the Analyzer
// interface the analyzer keys on. It is compiled only by the analyzer tests.
package analysis

// Analyzer mirrors the real analysis-package interface.
type Analyzer interface {
	Add(v int)
	NewShard() Analyzer
	Merge(shard Analyzer)
}

// Good implements Analyzer and appears in the test table.
type Good struct{ n int }

// Add implements Analyzer.
func (g *Good) Add(v int) { g.n += v }

// NewShard implements Analyzer.
func (g *Good) NewShard() Analyzer { return &Good{} }

// Merge implements Analyzer.
func (g *Good) Merge(shard Analyzer) { g.n += shard.(*Good).n }

// Missing implements Analyzer but is absent from every []Analyzer table in
// the tests.
type Missing struct{ n int } // want `Missing is missing from every \[\]Analyzer table`

// Add implements Analyzer.
func (m *Missing) Add(v int) { m.n += v }

// NewShard implements Analyzer.
func (m *Missing) NewShard() Analyzer { return &Missing{} }

// Merge implements Analyzer.
func (m *Missing) Merge(shard Analyzer) { m.n += shard.(*Missing).n }
