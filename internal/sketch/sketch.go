// Package sketch provides the mergeable bounded-memory sketches behind the
// analysis pipeline's SketchMode: a log-binned quantile sketch (Quantile, a
// DDSketch-style relative-accuracy histogram) for every CDF figure and an
// HLL-style distinct counter (Distinct) for AP/device cardinalities.
//
// Both sketches are built for analysis.Analyzer's merge contract and for the
// repository's determinism culture:
//
//   - Memory is bounded by construction: a Quantile's bin array is fixed by
//     its config, a Distinct's register file by its precision. Observing 10x
//     more samples does not grow either by a byte (pinned by the alloc
//     ceilings in internal/analysis/alloc_test.go).
//   - Merge is EXACTLY order-insensitive, not just "up to tolerance":
//     Quantile state is integer bin counts (merge = vector addition) and
//     Distinct state is a register-wise maximum, so any merge order — and any
//     shard split — yields bit-identical state. Both keep no floating-point
//     accumulators, which is what makes the sketch-path parallel-equivalence
//     tests able to assert DeepEqual across merge orders.
//   - Serialization (MarshalBinary/Decode*) is a pure function of state, so
//     identical sketches produce identical bytes; decoders validate
//     exhaustively and return errors — never panic — on torn or corrupt
//     input (fuzzed by FuzzSketchDecode/FuzzHLLDecode).
//
// Accuracy model: a Quantile answers any quantile with relative error at
// most its configured RelAcc on the value axis (plus an absolute floor of
// Min for values below resolution); a Distinct estimates cardinality within
// ~1.04/sqrt(2^precision) standard error (~1.6% at the default precision
// 12). DESIGN.md "Sketch-based analysis" maps these bounds to per-figure
// tolerances.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decode errors. Decoders wrap these (or return fmt.Errorf-constructed
// errors) for any input that is not a valid encoding; they never panic.
var (
	// ErrCorrupt marks an encoding whose structure is invalid: bad magic,
	// truncated fields, out-of-range indices or counts, trailing bytes.
	ErrCorrupt = errors.New("sketch: corrupt encoding")
	// ErrConfigMismatch is returned by Merge when the two sketches were
	// built with different configurations and their state is therefore not
	// commensurable.
	ErrConfigMismatch = errors.New("sketch: config mismatch")
)

// corruptf builds an ErrCorrupt-wrapped error with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// appendUvarint appends the unsigned varint encoding of v.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// readUvarint consumes one unsigned varint from b, returning the value and
// the remaining bytes. Only the minimal encoding is accepted — a padded
// varint (e.g. 0x80 0x00 for zero) would decode to state that re-encodes
// to different bytes, breaking the decode/encode identity the fuzz targets
// assert.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, corruptf("truncated varint")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, corruptf("non-minimal varint")
	}
	return v, b[n:], nil
}

// appendFloat appends the IEEE-754 bits of f, big-endian.
func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// readFloat consumes one float64 from b.
func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, corruptf("truncated float")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

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
