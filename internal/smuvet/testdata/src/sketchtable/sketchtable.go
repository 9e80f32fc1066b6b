// Package sketchtable is a smuvet shardmerge fixture for the sketch-backed
// rule (PR 10): analyzers whose state includes internal/sketch types must be
// exercised by a []Analyzer table built inside an *Equivalence* test
// function, where their approximation error is measured against the exact
// path. Compiled only by the analyzer tests.
package sketchtable

import "smartusage/internal/sketch"

// Analyzer mirrors the real analysis-package interface.
type Analyzer interface {
	Add(v int)
	NewShard() Analyzer
	Merge(shard Analyzer)
}

// Plain is an exact analyzer: no sketch state, so a plain table suffices.
type Plain struct{ n int }

// Add implements Analyzer.
func (p *Plain) Add(v int) { p.n += v }

// NewShard implements Analyzer.
func (p *Plain) NewShard() Analyzer { return &Plain{} }

// Merge implements Analyzer.
func (p *Plain) Merge(shard Analyzer) { p.n += shard.(*Plain).n }

// SketchGood holds a quantile sketch and appears in the equivalence battery.
type SketchGood struct{ q *sketch.Quantile }

// Add implements Analyzer.
func (g *SketchGood) Add(v int) { g.q.Add(float64(v)) }

// NewShard implements Analyzer.
func (g *SketchGood) NewShard() Analyzer {
	return &SketchGood{q: sketch.NewQuantile()}
}

// Merge implements Analyzer.
func (g *SketchGood) Merge(shard Analyzer) { g.q.Merge(shard.(*SketchGood).q) }

// SketchStray holds a sketch but only ever appears in plain tables, so its
// approximation error is never measured.
type SketchStray struct{ d *sketch.Distinct } // want `SketchStray is sketch-backed but appears in no \[\]Analyzer table built inside an Equivalence test function`

// Add implements Analyzer.
func (s *SketchStray) Add(v int) { s.d.AddUint64(uint64(v)) }

// NewShard implements Analyzer.
func (s *SketchStray) NewShard() Analyzer { return &SketchStray{d: sketch.NewDistinct()} }

// Merge implements Analyzer.
func (s *SketchStray) Merge(shard Analyzer) { s.d.Merge(shard.(*SketchStray).d) }

// bundle hides a sketch one struct hop away; the rule must see through it.
type bundle struct {
	devices [2]*sketch.Distinct
}

// SketchWrapped is sketch-backed only through a same-package struct field,
// and is also missing from the equivalence battery.
type SketchWrapped struct{ b bundle } // want `SketchWrapped is sketch-backed but appears in no \[\]Analyzer table built inside an Equivalence test function`

// Add implements Analyzer.
func (w *SketchWrapped) Add(v int) { w.b.devices[0].AddUint64(uint64(v)) }

// NewShard implements Analyzer.
func (w *SketchWrapped) NewShard() Analyzer {
	return &SketchWrapped{b: bundle{devices: [2]*sketch.Distinct{sketch.NewDistinct(), sketch.NewDistinct()}}}
}

// Merge implements Analyzer.
func (w *SketchWrapped) Merge(shard Analyzer) {
	o := shard.(*SketchWrapped)
	for i, d := range w.b.devices {
		d.Merge(o.b.devices[i])
	}
}
