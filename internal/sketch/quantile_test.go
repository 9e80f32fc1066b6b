package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile mirrors stats.Quantile's linear-interpolation convention so
// the accuracy tests compare against the exact path's definition.
func exactQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// relErr is |got-want| scaled by want (absolute when want is tiny).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if math.Abs(want) < 1e-9 {
		return d
	}
	return d / math.Abs(want)
}

func TestQuantileAccuracy(t *testing.T) {
	for _, dist := range []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*2 + 2) }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 50 }},
		{"uniform-wide", func(r *rand.Rand) float64 { return r.Float64() * 1e6 }},
	} {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			q := NewQuantile()
			xs := make([]float64, 20000)
			for i := range xs {
				xs[i] = dist.gen(r)
				q.Add(xs[i])
			}
			sort.Float64s(xs)
			// The documented bound is ~RelAcc on the value axis; allow a
			// little interpolation slack on top.
			bound := 2*relAcc + 1e-9
			for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				got, want := q.Quantile(p), exactQuantile(xs, p)
				if e := relErr(got, want); e > bound && math.Abs(got-want) > quantileMin {
					t.Errorf("q(%g) = %g, exact %g, rel err %.4f > %.4f", p, got, want, e, bound)
				}
			}
			var sum float64
			for _, x := range xs {
				sum += x
			}
			if e := relErr(q.Sum(), sum); e > bound {
				t.Errorf("Sum = %g, exact %g, rel err %.4f", q.Sum(), sum, e)
			}
			if e := relErr(q.Mean(), sum/float64(len(xs))); e > bound {
				t.Errorf("Mean = %g, exact %g, rel err %.4f", q.Mean(), sum/float64(len(xs)), e)
			}
		})
	}
}

func TestQuantileLowAndClamp(t *testing.T) {
	q := NewQuantile()
	for _, v := range []float64{0, -5, 1e-9, math.NaN(), math.Inf(-1)} {
		q.Add(v)
	}
	if q.low != 5 || q.Count() != 5 {
		t.Fatalf("low %d count %d, want 5/5", q.low, q.Count())
	}
	if got := q.Quantile(0.5); got != 0 {
		t.Fatalf("median of below-resolution values = %g, want 0", got)
	}
	q.Add(math.Inf(1)) // clamps to the top bin
	q.Add(1e300)
	if got := q.Quantile(1); got > 1.03e12 || got < 0.97e12 {
		t.Fatalf("overflow values should clamp near Max: got %g", got)
	}
	// Counts stay exact through clamping.
	if q.Count() != 7 {
		t.Fatalf("count %d, want 7", q.Count())
	}
}

func TestQuantileEmpty(t *testing.T) {
	q := NewQuantile()
	if q.Quantile(0.5) != 0 || q.Sum() != 0 || q.Mean() != 0 || q.Count() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	q.Each(func(v float64, n uint64) { t.Fatalf("Each on empty sketch yielded (%g, %d)", v, n) })
}

func TestQuantileEachCoversCount(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	q := NewQuantile()
	for i := 0; i < 5000; i++ {
		q.Add(r.ExpFloat64() * 10)
	}
	q.AddN(0, 17)
	var total uint64
	last := math.Inf(-1)
	q.Each(func(v float64, n uint64) {
		if v <= last {
			t.Fatalf("Each out of order: %g after %g", v, last)
		}
		last = v
		total += n
	})
	if total != q.Count() {
		t.Fatalf("Each covered %d of %d observations", total, q.Count())
	}
}

// TestQuantileAddInfTopBin pins the documented above-Max behavior for +Inf
// alone: the log-bin index computation would convert int(+Inf) to the
// minimum int64 and once mis-reported an infinite observation as ~Min.
func TestQuantileAddInfTopBin(t *testing.T) {
	q := NewQuantile()
	q.Add(math.Inf(1))
	if q.low != 0 {
		t.Fatalf("+Inf landed in the low bucket (low=%d)", q.low)
	}
	if got := q.Quantile(0.5); got < 0.97e12 {
		t.Fatalf("median of a lone +Inf = %g, want ~Max (top bin)", got)
	}
}

// TestQuantileBinGeometryPinned pins the bin geometry to the values the
// sketch has always derived in float64 arithmetic: one more bin, or ln γ off
// by one ulp, moves bin boundaries and with them every sketch-mode figure.
func TestQuantileBinGeometryPinned(t *testing.T) {
	if got := len(NewQuantile().bins); got != 1727 {
		t.Errorf("%d bins, want 1727", got)
	}
	if got := math.Float64bits(logGamma); got != 0x3f947b0e059d057d {
		t.Errorf("ln γ bits %#x, want 0x3f947b0e059d057d", got)
	}
	if got := math.Float64bits(invLogGamma); got != 0x4048ffc9629d2370 {
		t.Errorf("1/ln γ bits %#x, want 0x4048ffc9629d2370", got)
	}
}

func TestQuantileFootprintFixed(t *testing.T) {
	q := NewQuantile()
	before := q.Footprint()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		q.Add(math.Exp(r.NormFloat64() * 4))
	}
	if q.Footprint() != before {
		t.Fatalf("footprint grew %d -> %d under load", before, q.Footprint())
	}
	if before > 32<<10 {
		t.Fatalf("footprint %d bytes, want under 32 KiB", before)
	}
}

func BenchmarkQuantileAdd(b *testing.B) {
	q := NewQuantile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Add(float64(i%100000) + 0.5)
	}
}

func BenchmarkQuantileMerge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := NewQuantile()
	y := NewQuantile()
	for i := 0; i < 100000; i++ {
		x.Add(r.ExpFloat64() * 100)
		y.Add(r.ExpFloat64() * 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}

func BenchmarkQuantileQuery(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	q := NewQuantile()
	for i := 0; i < 100000; i++ {
		q.Add(r.ExpFloat64() * 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Quantile(0.9)
	}
}
