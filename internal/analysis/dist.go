package analysis

import (
	"sort"

	"smartusage/internal/sketch"
	"smartusage/internal/stats"
)

// Dist is the distribution behind a quantile figure (daily volumes, Figs.
// 3-4 and Table 3; association durations, Fig. 13). Each figure is written
// once over Dist; core.Options.SketchMode only picks its store, following
// DDSketch's split of the statistics from the store that feeds them:
//
//   - the exact store keeps every observation and sorts them once, when the
//     figure's result is built, so statistics are those of the raw sample;
//   - the sketch store folds each observation into a sketch.Quantile, a
//     fixed-size log-binned histogram: memory no longer grows with the
//     observations, and quantile-derived numbers carry ~1% relative error
//     (DESIGN.md "Sketch-based analysis").
//
// A Dist handed out in a result is final. Its statistics are pure functions
// of the stored state (sorted values, or integer bin counts), so results are
// DeepEqual across worker counts and merge orders in either store.
//
// Dist is one concrete type rather than an interface over two stores: the
// smuvet shardmerge rule finds sketch-backed analyzers by walking struct
// fields to a type from package sketch.
type Dist struct {
	xs []float64        // exact store; sorted once final
	q  *sketch.Quantile // sketch store; nil in the exact store
}

// NewDist returns an empty distribution in the sketch store when sketchMode
// is set, else in the exact store. Every sketch shares
// sketch.DefaultQuantileConfig, so shard merges never mismatch.
func NewDist(sketchMode bool) Dist {
	if sketchMode {
		return Dist{q: sketch.NewQuantile(sketch.DefaultQuantileConfig())}
	}
	return Dist{}
}

// Add records one observation.
func (d *Dist) Add(v float64) {
	if d.q != nil {
		d.q.Add(v)
		return
	}
	d.xs = append(d.xs, v)
}

// Merge folds o, a Dist in the same store, into d.
func (d *Dist) Merge(o *Dist) {
	if d.q == nil {
		d.xs = append(d.xs, o.xs...)
		return
	}
	if err := d.q.Merge(o.q); err != nil {
		panic(err) // every Dist sketch shares one config
	}
}

// finish makes d final: it sorts the exact store. Observations arrive in
// map-iteration and shard order, so sorting is what makes the exact values,
// and the summation order of Mean, independent of both.
func (d *Dist) finish() { sort.Float64s(d.xs) }

// Count returns the number of observations.
func (d *Dist) Count() int {
	if d.q != nil {
		return int(d.q.Count())
	}
	return len(d.xs)
}

// Quantile returns the p-th quantile under stats.Quantile's convention (0
// when empty).
func (d *Dist) Quantile(p float64) float64 {
	if d.q != nil {
		return d.q.Quantile(p)
	}
	return stats.QuantileSorted(d.xs, p)
}

// Mean returns the mean observation (0 when empty).
func (d *Dist) Mean() float64 {
	if d.q != nil {
		return d.q.Mean()
	}
	return stats.Mean(d.xs)
}

// CCDF returns the empirical complementary CDF P[v > X]. The sketch store
// reports one point per non-empty bin, at the bin's midpoint.
func (d *Dist) CCDF() stats.Distribution {
	if d.q == nil {
		return stats.CCDF(d.xs)
	}
	n := d.q.Count()
	if n == 0 {
		return stats.Distribution{}
	}
	pts := make([]stats.Point, 0, 64)
	var cum uint64
	d.q.Each(func(v float64, c uint64) {
		cum += c
		pts = append(pts, stats.Point{X: v, Y: 1 - float64(cum)/float64(n)})
	})
	return stats.Distribution{Points: pts}
}

// Values returns the observations in ascending order, or nil in the sketch
// store, which keeps no raw values.
func (d *Dist) Values() []float64 { return d.xs }
