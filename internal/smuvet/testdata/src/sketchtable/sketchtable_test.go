package sketchtable

import (
	"testing"

	"smartusage/internal/sketch"
)

// TestParallel builds the plain sharding table: every implementation is
// present, so the base shardmerge rules are satisfied — but a plain table
// does not count as sketch-vs-exact coverage.
func TestParallel(t *testing.T) {
	table := []Analyzer{
		&Plain{},
		&SketchGood{q: sketch.NewQuantile()},
		&SketchStray{d: sketch.NewDistinct()},
		&SketchWrapped{b: bundle{devices: [2]*sketch.Distinct{sketch.NewDistinct(), sketch.NewDistinct()}}},
	}
	for _, a := range table {
		a.Add(1)
	}
}

// TestSketchEquivalence is the equivalence battery: only SketchGood is
// measured against the exact path here, so the stray sketch analyzers are
// flagged at their declarations.
func TestSketchEquivalence(t *testing.T) {
	g := &SketchGood{q: sketch.NewQuantile()}
	battery := []Analyzer{g, &Plain{}}
	for _, a := range battery {
		a.Add(2)
	}
	if got := g.q.Quantile(0.5); got <= 0 {
		t.Fatalf("median %g", got)
	}
}
