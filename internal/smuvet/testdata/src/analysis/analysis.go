// Package analysis is a smuvet shardmerge fixture: it declares the Analyzer
// and ShardedAnalyzer interfaces the analyzer keys on. It is compiled only by
// the analyzer tests.
package analysis

// Analyzer mirrors the real analysis-package interface.
type Analyzer interface {
	Add(v int)
}

// ShardedAnalyzer is the parallel-merge contract.
type ShardedAnalyzer interface {
	Analyzer
	NewShard() Analyzer
	Merge(shard Analyzer)
}

// Good implements both interfaces and appears in the test table.
type Good struct{ n int }

// Add implements Analyzer.
func (g *Good) Add(v int) { g.n += v }

// NewShard implements ShardedAnalyzer.
func (g *Good) NewShard() Analyzer { return &Good{} }

// Merge implements ShardedAnalyzer.
func (g *Good) Merge(shard Analyzer) { g.n += shard.(*Good).n }

// NoShard implements Analyzer only, so a multi-worker Run would silently
// fall back to one worker for it.
type NoShard struct{ n int } // want `NoShard implements Analyzer but not ShardedAnalyzer`

// Add implements Analyzer.
func (a *NoShard) Add(v int) { a.n += v }

// Missing implements both interfaces but is absent from every []Analyzer
// table in the tests.
type Missing struct{ n int } // want `Missing is missing from every \[\]Analyzer table`

// Add implements Analyzer.
func (m *Missing) Add(v int) { m.n += v }

// NewShard implements ShardedAnalyzer.
func (m *Missing) NewShard() Analyzer { return &Missing{} }

// Merge implements ShardedAnalyzer.
func (m *Missing) Merge(shard Analyzer) { m.n += shard.(*Missing).n }
