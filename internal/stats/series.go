package stats

import "fmt"

// Series is a fixed-length accumulator of values indexed by time bin. It is
// the building block for the paper's hour-of-week curves: aggregated traffic
// (Fig. 2), WiFi-traffic and WiFi-user ratios (Figs. 6-8), and interface-state
// shares (Fig. 9).
type Series struct {
	Sum   []float64
	Count []int
}

// NewSeries returns a Series with n bins. It panics when n <= 0.
func NewSeries(n int) *Series {
	if n <= 0 {
		panic(fmt.Sprintf("stats: NewSeries n=%d", n))
	}
	return &Series{Sum: make([]float64, n), Count: make([]int, n)}
}

// Len returns the number of bins.
func (s *Series) Len() int { return len(s.Sum) }

// Add accumulates v into bin i. Out-of-range bins panic: bin indices are
// always derived from clock arithmetic and an out-of-range value is a bug.
func (s *Series) Add(i int, v float64) {
	s.Sum[i] += v
	s.Count[i]++
}

// Ratio returns the element-wise ratio num/den of two equally-binned series
// of sums, emitting 0 where the denominator is 0. It returns an error when
// lengths differ.
func Ratio(num, den []float64) ([]float64, error) {
	if len(num) != len(den) {
		return nil, fmt.Errorf("stats: Ratio length mismatch %d != %d", len(num), len(den))
	}
	out := make([]float64, len(num))
	for i := range num {
		if den[i] != 0 {
			out[i] = num[i] / den[i]
		}
	}
	return out, nil
}

// Grid is a dense 2-D accumulator used for heat maps: the cellular-vs-WiFi
// user density of Fig. 5 and the AP density maps of Fig. 10.
type Grid struct {
	W, H   int
	Counts []int
}

// NewGrid returns a w-by-h grid of zero counts. It panics for non-positive
// dimensions.
func NewGrid(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("stats: NewGrid %dx%d", w, h))
	}
	return &Grid{W: w, H: h, Counts: make([]int, w*h)}
}

// Add increments cell (x, y). Out-of-range cells are ignored so callers can
// feed raw coordinates and let the grid act as a viewport.
func (g *Grid) Add(x, y int) {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return
	}
	g.Counts[y*g.W+x]++
}

// At returns the count of cell (x, y), or 0 when out of range.
func (g *Grid) At(x, y int) int {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		return 0
	}
	return g.Counts[y*g.W+x]
}

// Max returns the maximum cell count.
func (g *Grid) Max() int {
	m := 0
	for _, c := range g.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// CellsAtLeast returns how many cells hold a count >= threshold. The paper
// summarizes Fig. 10 this way ("cells with at least one AP", "cells with
// larger than 100 APs").
func (g *Grid) CellsAtLeast(threshold int) int {
	n := 0
	for _, c := range g.Counts {
		if c >= threshold {
			n++
		}
	}
	return n
}
