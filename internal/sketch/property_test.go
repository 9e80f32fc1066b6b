package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// These property tests pin the merge algebra that analysis.Analyzer's Merge
// leans on: for any random shard split (1..16 shards) and any merge order,
// the folded sketch's state is DeepEqual to a single-shard build over the
// same observations. That is deliberately stronger than the documented
// tolerance — integer-only state makes merge exactly commutative and
// associative, and the equivalence suite in internal/analysis exploits it
// with DeepEqual across worker counts.

// clone returns an independent copy of q.
func clone(q *Quantile) *Quantile {
	c := *q
	c.bins = append([]uint64(nil), q.bins...)
	return &c
}

func quantileValues(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(10) {
		case 0:
			xs[i] = 0 // below-resolution bucket
		case 1:
			xs[i] = r.Float64() * 1e9 // huge
		default:
			xs[i] = math.Exp(r.NormFloat64()*2 + 1)
		}
	}
	return xs
}

func TestQuantileMergeAlgebra(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		xs := quantileValues(r, 3000)

		whole := NewQuantile()
		for _, x := range xs {
			whole.Add(x)
		}

		for shards := 1; shards <= 16; shards++ {
			parts := make([]*Quantile, shards)
			for i := range parts {
				parts[i] = NewQuantile()
			}
			for _, x := range xs {
				parts[r.Intn(shards)].Add(x)
			}
			// Merge in a random order into a random starting shard.
			order := r.Perm(shards)
			acc := parts[order[0]]
			for _, i := range order[1:] {
				acc.Merge(parts[i])
			}
			if !reflect.DeepEqual(whole, acc) {
				t.Fatalf("seed %d shards %d: merged state differs from single build", seed, shards)
			}
		}
	}
}

func TestQuantileMergeCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	a, b := NewQuantile(), NewQuantile()
	for i := 0; i < 2000; i++ {
		a.Add(r.ExpFloat64() * 10)
		b.Add(r.ExpFloat64() * 1000)
	}
	ab := clone(a)
	ab.Merge(b)
	ba := clone(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("a+b != b+a")
	}
}

// TestQuantileSelfMergeQuantiles pins the result-level idempotence of the
// quantile sketch: doubling every count (merging a clone of itself) scales
// the histogram but leaves every quantile unchanged, because quantiles
// depend only on relative ranks.
func TestQuantileSelfMergeQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	q := NewQuantile()
	for i := 0; i < 5000; i++ {
		q.Add(math.Exp(r.NormFloat64() * 3))
	}
	doubled := clone(q)
	doubled.Merge(clone(q))
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		a, b := q.Quantile(p), doubled.Quantile(p)
		// Ranks interleave identical values, so interpolation never crosses
		// more than one bin boundary.
		if relErr(b, a) > 2*relAcc {
			t.Errorf("q(%g): %g before self-merge, %g after", p, a, b)
		}
	}
	if doubled.Mean() != q.Mean() {
		t.Errorf("mean changed under self-merge: %g -> %g", q.Mean(), doubled.Mean())
	}
}

func TestDistinctMergeAlgebra(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1000 + r.Intn(20000)

		whole := NewDistinct()
		for i := 0; i < n; i++ {
			whole.AddUint64(uint64(i))
		}
		for shards := 1; shards <= 16; shards++ {
			parts := make([]*Distinct, shards)
			for i := range parts {
				parts[i] = NewDistinct()
			}
			for i := 0; i < n; i++ {
				// Overlapping shards: distinct counting must absorb
				// duplicates across shards, unlike the quantile sketch's
				// disjoint split.
				parts[r.Intn(shards)].AddUint64(uint64(i))
				if r.Intn(4) == 0 {
					parts[r.Intn(shards)].AddUint64(uint64(i))
				}
			}
			order := r.Perm(shards)
			acc := parts[order[0]]
			for _, i := range order[1:] {
				acc.Merge(parts[i])
			}
			if *acc != *whole {
				t.Fatalf("seed %d shards %d: merged registers differ from single build", seed, shards)
			}
		}
	}
}
