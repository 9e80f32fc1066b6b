package sketch

import (
	"fmt"
	"math"
	"testing"
)

func TestDistinctAccuracy(t *testing.T) {
	// Standard error at precision 12 is ~1.6%; assert 5x that.
	const tol = 0.08
	for _, n := range []int{10, 100, 1000, 50000, 500000} {
		d := NewDistinct()
		for i := 0; i < n; i++ {
			d.AddUint64(uint64(i))
		}
		got := d.Estimate()
		if e := math.Abs(got-float64(n)) / float64(n); e > tol {
			t.Errorf("n=%d: estimate %.0f, rel err %.3f > %.3f", n, got, e, tol)
		}
	}
}

func TestDistinctStringsAndKeys(t *testing.T) {
	d := NewDistinct()
	const n = 20000
	for i := 0; i < n; i++ {
		d.AddKey(0, fmt.Sprintf("essid-%d", i))
	}
	if got := d.Estimate(); math.Abs(got-n)/n > 0.08 {
		t.Errorf("string estimate %.0f for %d", got, n)
	}
	// Composite keys: same number part with different strings (and vice
	// versa) must count separately.
	k := NewDistinct()
	for i := 0; i < 1000; i++ {
		k.AddKey(uint64(i%10), fmt.Sprintf("net-%d", i))
		k.AddKey(uint64(i), "shared")
	}
	if got := k.Estimate(); math.Abs(got-2000)/2000 > 0.08 {
		t.Errorf("key estimate %.0f for 2000", got)
	}
}

func TestDistinctDuplicatesDoNotGrow(t *testing.T) {
	d := NewDistinct()
	for i := 0; i < 100; i++ {
		d.AddUint64(42)
		d.AddKey(0, "same")
	}
	if got := d.Count(); got != 2 {
		t.Fatalf("100 duplicate adds of 2 elements estimated %d", got)
	}
}

func TestDistinctMergeIdempotent(t *testing.T) {
	d := NewDistinct()
	for i := 0; i < 10000; i++ {
		d.AddUint64(uint64(i * 7))
	}
	want := *d
	d.Merge(&want)
	if *d != want {
		t.Fatal("self-merge changed register state")
	}
}

func BenchmarkDistinctAdd(b *testing.B) {
	d := NewDistinct()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AddUint64(uint64(i))
	}
}

func BenchmarkDistinctEstimate(b *testing.B) {
	d := NewDistinct()
	for i := 0; i < 100000; i++ {
		d.AddUint64(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Estimate()
	}
}
