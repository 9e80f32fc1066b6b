// Package stats provides the descriptive-statistics toolkit used by every
// analyzer in this repository: empirical distribution functions (CDF, CCDF,
// PDF), histograms, quantiles, moments, least-squares fits, and binned time
// series. All functions are pure and allocate only their results, so they are
// safe for concurrent use.
//
// The package mirrors the statistical vocabulary of the reproduced paper
// (Fukuda et al., IMC 2015): daily-volume CDFs (Figs. 3-4), ratio time series
// (Figs. 6-8), density estimates (Figs. 15-16), complementary CDFs
// (Figs. 13, 17), and annual growth rates obtained by linear fit (Table 3).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (the same convention as numpy's
// default). The input need not be sorted; it is not modified. Quantile of an
// empty slice is 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over an already-sorted sample, without the
// copy.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Point is one (X, Y) coordinate of an empirical curve.
type Point struct {
	X float64
	Y float64
}

// Distribution is an empirical cumulative distribution: Points are sorted by
// X and Y is the cumulative probability P[v <= X].
type Distribution struct {
	Points []Point
}

// CDF builds the empirical CDF of xs. Ties are collapsed to a single point at
// the highest cumulative probability. It returns an empty Distribution for an
// empty input. The points are sized to the distinct values, so a result that
// keeps the distribution keeps one point per distinct value, not per sample.
func CDF(xs []float64) Distribution {
	n := len(xs)
	if n == 0 {
		return Distribution{}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	distinct := 0
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			distinct++
		}
	}
	pts := make([]Point, 0, distinct)
	for i, v := range sorted {
		p := float64(i+1) / float64(n)
		if len(pts) > 0 && pts[len(pts)-1].X == v {
			pts[len(pts)-1].Y = p
			continue
		}
		pts = append(pts, Point{X: v, Y: p})
	}
	return Distribution{Points: pts}
}

// CCDF builds the empirical complementary CDF P[v > X] of xs.
func CCDF(xs []float64) Distribution {
	d := CDF(xs)
	for i := range d.Points {
		d.Points[i].Y = 1 - d.Points[i].Y
	}
	return d
}

// At evaluates the distribution at x by step interpolation: it returns the Y
// of the largest point whose X <= x, or 0 if x precedes all points.
func (d Distribution) At(x float64) float64 {
	i := sort.Search(len(d.Points), func(i int) bool { return d.Points[i].X > x })
	if i == 0 {
		return 0
	}
	return d.Points[i-1].Y
}

// Histogram is a fixed-width binned count of a sample. Bin i covers
// [Lo + i*Width, Lo + (i+1)*Width); the final bin is closed on the right.
type Histogram struct {
	Lo     float64
	Width  float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into nbins equal bins spanning [lo, hi]. Values
// outside the range are clamped into the first or last bin. It panics when
// nbins <= 0 or hi <= lo, which indicate programmer error.
func NewHistogram(xs []float64, lo, hi float64, nbins int) Histogram {
	if nbins <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram nbins=%d", nbins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram range [%g,%g]", lo, hi))
	}
	h := Histogram{Lo: lo, Width: (hi - lo) / float64(nbins), Counts: make([]int, nbins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one observation into the histogram.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / h.Width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Total++
}

// PDF converts the histogram into a probability density curve: each point is
// the bin midpoint and the fraction of mass in the bin divided by the bin
// width. An empty histogram yields an empty curve.
func (h Histogram) PDF() []Point {
	if h.Total == 0 {
		return nil
	}
	pts := make([]Point, len(h.Counts))
	for i, c := range h.Counts {
		pts[i] = Point{
			X: h.Lo + (float64(i)+0.5)*h.Width,
			Y: float64(c) / float64(h.Total) / h.Width,
		}
	}
	return pts
}

// LinearFit is a least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the ordinary-least-squares line through (xs, ys). It
// returns an error when the slices differ in length, contain fewer than two
// points, or have zero variance in x.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs >= 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLine zero variance in x")
	}
	f := LinearFit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy > 0 {
		f.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		f.R2 = 1
	}
	return f, nil
}

// AnnualGrowthRate derives a relative annual growth rate from yearly values
// by fitting a line through (yearIndex, log value) and exponentiating the
// slope. This log-space linear fit is the convention that reproduces every
// AGR in the paper's Table 3 (e.g. WiFi medians 9.2 → 24.3 → 50.7 MB/day
// yield 134%). Values must be positive and given for consecutive years.
func AnnualGrowthRate(values []float64) (float64, error) {
	if len(values) < 2 {
		return 0, fmt.Errorf("stats: AnnualGrowthRate needs >= 2 years, got %d", len(values))
	}
	xs := make([]float64, len(values))
	logs := make([]float64, len(values))
	for i, v := range values {
		if v <= 0 {
			return 0, fmt.Errorf("stats: AnnualGrowthRate non-positive value %g", v)
		}
		xs[i] = float64(i)
		logs[i] = math.Log(v)
	}
	fit, err := FitLine(xs, logs)
	if err != nil {
		return 0, err
	}
	return math.Exp(fit.Slope) - 1, nil
}

// KolmogorovSmirnov returns the two-sample KS statistic — the maximum
// vertical distance between the empirical CDFs of xs and ys. It is the
// repository's distribution-stability metric: re-running a campaign under a
// different seed should move each reported distribution by only a small KS
// distance.
func KolmogorovSmirnov(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	a := make([]float64, len(xs))
	copy(a, xs)
	sort.Float64s(a)
	b := make([]float64, len(ys))
	copy(b, ys)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Step past the smaller value on both sides at once so ties move
		// the two empirical CDFs together.
		v := a[i]
		if b[j] < v {
			v = b[j]
		}
		for i < len(a) && a[i] <= v {
			i++
		}
		for j < len(b) && b[j] <= v {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d, nil
}
