package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// These property tests pin the merge algebra that analysis.Analyzer's Merge
// leans on: for any random shard split (1..16 shards) and any merge order,
// the folded sketch is BIT-IDENTICAL (compared through its deterministic
// serialization) to a single-shard build over the same observations. That is
// deliberately stronger than the documented tolerance — integer-only state
// makes merge exactly commutative and associative, and the equivalence suite
// in internal/analysis exploits it with DeepEqual across worker counts.

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
	cfg := DefaultQuantileConfig()
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		xs := quantileValues(r, 3000)

		whole := NewQuantile(cfg)
		for _, x := range xs {
			whole.Add(x)
		}
		want, _ := whole.MarshalBinary()

		for shards := 1; shards <= 16; shards++ {
			parts := make([]*Quantile, shards)
			for i := range parts {
				parts[i] = NewQuantile(cfg)
			}
			for _, x := range xs {
				parts[r.Intn(shards)].Add(x)
			}
			// Merge in a random order into a random starting shard.
			order := r.Perm(shards)
			acc := parts[order[0]]
			for _, i := range order[1:] {
				if err := acc.Merge(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			got, _ := acc.MarshalBinary()
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d shards %d: merged state differs from single build", seed, shards)
			}
		}
	}
}

func TestQuantileMergeCommutes(t *testing.T) {
	cfg := DefaultQuantileConfig()
	r := rand.New(rand.NewSource(99))
	a, b := NewQuantile(cfg), NewQuantile(cfg)
	for i := 0; i < 2000; i++ {
		a.Add(r.ExpFloat64() * 10)
		b.Add(r.ExpFloat64() * 1000)
	}
	ab := a.Clone()
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	ba := b.Clone()
	if err := ba.Merge(a); err != nil {
		t.Fatal(err)
	}
	x, _ := ab.MarshalBinary()
	y, _ := ba.MarshalBinary()
	if !bytes.Equal(x, y) {
		t.Fatal("a+b != b+a")
	}
}

// TestQuantileSelfMergeQuantiles pins the result-level idempotence of the
// quantile sketch: doubling every count (merging a clone of itself) scales
// the histogram but leaves every quantile unchanged, because quantiles
// depend only on relative ranks.
func TestQuantileSelfMergeQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	q := NewQuantile(DefaultQuantileConfig())
	for i := 0; i < 5000; i++ {
		q.Add(math.Exp(r.NormFloat64() * 3))
	}
	doubled := q.Clone()
	if err := doubled.Merge(q.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		a, b := q.Quantile(p), doubled.Quantile(p)
		// Ranks interleave identical values, so interpolation never crosses
		// more than one bin boundary.
		if relErr(b, a) > 2*q.Config().RelAcc {
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
		want, _ := whole.MarshalBinary()

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
			got, _ := acc.MarshalBinary()
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d shards %d: merged registers differ from single build", seed, shards)
			}
		}
	}
}
