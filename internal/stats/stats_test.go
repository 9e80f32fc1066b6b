package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMedianEmpty(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty mean/median should be 0")
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%g)=%g want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		a, b := Quantile(xs, q1), Quantile(xs, q2)
		return a <= b && lo <= a && b <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFBasics(t *testing.T) {
	d := CDF([]float64{1, 1, 2, 4})
	if len(d.Points) != 3 {
		t.Fatalf("ties not collapsed: %+v", d.Points)
	}
	if d.Points[0] != (Point{1, 0.5}) {
		t.Fatalf("tie point %+v", d.Points[0])
	}
	if d.Points[2] != (Point{4, 1}) {
		t.Fatalf("last point %+v", d.Points[2])
	}
	if got := d.At(3); !almostEqual(got, 0.75, 1e-12) {
		t.Fatalf("At(3)=%g", got)
	}
	if got := d.At(0.5); got != 0 {
		t.Fatalf("At before support = %g", got)
	}
}

// TestCDFCapacityFollowsDistinctValues pins the size of what a kept
// distribution holds: one point per distinct value, whatever the sample
// count.
func TestCDFCapacityFollowsDistinctValues(t *testing.T) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = float64(i % 5)
	}
	d := CDF(xs)
	if len(d.Points) != 5 || cap(d.Points) != 5 {
		t.Fatalf("CDF of 10000 samples over 5 values: %d points, capacity %d, want 5 and 5",
			len(d.Points), cap(d.Points))
	}
	if c := CCDF(xs); cap(c.Points) != 5 {
		t.Fatalf("CCDF capacity %d, want 5", cap(c.Points))
	}
}

// Property: a CDF is nondecreasing in both X and Y and ends at 1.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		d := CDF(xs)
		if len(xs) == 0 {
			return len(d.Points) == 0
		}
		for i := 1; i < len(d.Points); i++ {
			if d.Points[i].X <= d.Points[i-1].X || d.Points[i].Y < d.Points[i-1].Y {
				return false
			}
		}
		return almostEqual(d.Points[len(d.Points)-1].Y, 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCCDFComplementsCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 5, 6}
	c, cc := CDF(xs), CCDF(xs)
	for i := range c.Points {
		if !almostEqual(c.Points[i].Y+cc.Points[i].Y, 1, 1e-12) {
			t.Fatalf("point %d: %g + %g != 1", i, c.Points[i].Y, cc.Points[i].Y)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 2.5, -10, 99}, 0, 3, 3)
	if h.Total != 5 {
		t.Fatalf("total %d", h.Total)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Fatalf("counts %v (out-of-range must clamp)", h.Counts)
	}
	pdf := h.PDF()
	var integral float64
	for _, p := range pdf {
		integral += p.Y * h.Width
	}
	if !almostEqual(integral, 1, 1e-9) {
		t.Fatalf("PDF integrates to %g", integral)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEmptyHistogramPDF(t *testing.T) {
	h := NewHistogram(nil, 0, 1, 4)
	if h.PDF() != nil {
		t.Fatal("empty histogram should yield a nil curve")
	}
}

func TestFitLineRecovers(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 3, 1e-12) || !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("fit %+v", fit)
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 10-0.5*x+rng.NormFloat64())
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, -0.5, 0.01) {
		t.Fatalf("slope %g", fit.Slope)
	}
	if fit.R2 < 0.9 {
		t.Fatalf("R2 %g", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("zero x-variance accepted")
	}
}

// AnnualGrowthRate must reproduce the paper's Table 3 AGRs from its
// published medians/means.
func TestAnnualGrowthRatePaperTable3(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		want   float64
	}{
		{"median all", []float64{57.9, 90.3, 126.5}, 0.48},
		{"median cell", []float64{19.5, 27.6, 35.6}, 0.35},
		{"median wifi", []float64{9.2, 24.3, 50.7}, 1.34},
		{"mean all", []float64{102.9, 179.9, 239.5}, 0.53},
		{"mean cell", []float64{42.2, 58.5, 71.5}, 0.30},
		{"mean wifi", []float64{60.7, 121.5, 168.1}, 0.66},
	}
	for _, c := range cases {
		got, err := AnnualGrowthRate(c.values)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !almostEqual(got, c.want, 0.02) {
			t.Errorf("%s: AGR %.3f want %.2f", c.name, got, c.want)
		}
	}
}

func TestAnnualGrowthRateErrors(t *testing.T) {
	if _, err := AnnualGrowthRate([]float64{5}); err == nil {
		t.Fatal("single year accepted")
	}
	if _, err := AnnualGrowthRate([]float64{1, -2}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := AnnualGrowthRate([]float64{1, 0}); err == nil {
		t.Fatal("zero value accepted")
	}
}

// Property: exact exponential growth is recovered for any positive rate.
func TestAnnualGrowthRateExponential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := rng.Float64()*2 - 0.5 // -0.5 .. 1.5
		base := 1 + rng.Float64()*100
		vals := []float64{base, base * (1 + rate), base * (1 + rate) * (1 + rate)}
		if vals[1] <= 0 || vals[2] <= 0 {
			return true
		}
		got, err := AnnualGrowthRate(vals)
		return err == nil && almostEqual(got, rate, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if d, err := KolmogorovSmirnov(same, same); err != nil || d != 0 {
		t.Fatalf("KS(x,x) = %g, %v", d, err)
	}
	// Disjoint supports: KS = 1.
	lo := []float64{1, 2, 3}
	hi := []float64{10, 20, 30}
	if d, _ := KolmogorovSmirnov(lo, hi); d != 1 {
		t.Fatalf("KS disjoint = %g", d)
	}
	// Shifted normals: KS well below 1, above 0.
	rng := rand.New(rand.NewSource(8))
	var a, b []float64
	for i := 0; i < 4000; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64()+0.5)
	}
	d, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Theoretical KS for N(0,1) vs N(0.5,1) is ~0.197.
	if d < 0.12 || d > 0.28 {
		t.Fatalf("KS shifted normals = %g", d)
	}
	if _, err := KolmogorovSmirnov(nil, a); err != ErrEmpty {
		t.Fatal("empty sample accepted")
	}
}
