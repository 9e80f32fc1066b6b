// Package sketch provides the mergeable bounded-memory sketches behind the
// analysis pipeline's SketchMode: a log-binned quantile sketch (Quantile, a
// DDSketch-style relative-accuracy histogram) for every CDF figure and an
// HLL-style distinct counter (Distinct) for AP/device cardinalities.
//
// Both sketches are built for analysis.Analyzer's merge contract and for the
// repository's determinism culture:
//
//   - Memory is bounded by construction: a Quantile's bin array is fixed by
//     its accuracy and value range, a Distinct's register file by its
//     precision. Observing 10x more samples does not grow either by a byte
//     (pinned by the alloc ceilings in internal/analysis/alloc_test.go).
//   - Merge is EXACTLY order-insensitive, not just "up to tolerance":
//     Quantile state is integer bin counts (merge = vector addition) and
//     Distinct state is a register-wise maximum, so any merge order — and any
//     shard split — yields bit-identical state. Both keep no floating-point
//     accumulators, which is what makes the sketch-path parallel-equivalence
//     tests able to assert DeepEqual across merge orders.
//
// Accuracy model: a Quantile answers any quantile with relative error at
// most 1% on the value axis (plus an absolute floor of 1e-3 for values
// below resolution); a Distinct estimates cardinality within
// ~1.04/sqrt(2^precision) standard error (~1.6% at precision 12). Both are
// fixed: the paper's figures need one accuracy, and one configuration keeps
// every sketch mergeable with every other. DESIGN.md "Sketch-based analysis"
// maps these bounds to per-figure tolerances.
package sketch

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
// It is the same finalizer the analysis engine's shardOf uses, so
// sequentially assigned device IDs spread evenly across HLL registers.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fnv1a64 seeds string hashing: FNV-1a over s folded into h.
func fnv1a64(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
