package sketch

import (
	"math"
	"math/bits"
)

// HLL geometry. Precision is fixed at 12: 4096 one-byte registers (4 KB)
// give a standard error of ~1.04/sqrt(4096) ≈ 1.6%, ample for the ~5%
// tolerance the cardinality figures document, and a fixed precision keeps
// every Distinct mergeable with every other.
const (
	hllPrecision = 12
	hllRegisters = 1 << hllPrecision
	// hllMaxRank is the largest storable rank: 64 hash bits minus the
	// precision bits leave 52 suffix bits, so ranks run 1..53.
	hllMaxRank = 64 - hllPrecision + 1
)

// Distinct is a HyperLogLog distinct counter with fixed precision 12. Its
// state is a register-wise maximum, so Merge is exactly commutative,
// associative, and idempotent, and Estimate — a pure function of the
// registers evaluated in fixed order — is bit-identical across any merge
// order or shard split.
//
// Not safe for concurrent use.
type Distinct struct {
	regs [hllRegisters]uint8
}

// NewDistinct returns an empty distinct counter.
func NewDistinct() *Distinct { return &Distinct{} }

// Footprint returns the counter's approximate in-memory size in bytes; it
// never grows with observations.
func (d *Distinct) Footprint() int { return hllRegisters + 16 }

// AddHash records one element given an already well-mixed 64-bit hash.
// Callers with raw integers or (integer, string) keys should use
// AddUint64/AddKey, which apply the package's mixers first.
func (d *Distinct) AddHash(h uint64) {
	idx := h >> (64 - hllPrecision)
	rank := uint8(bits.LeadingZeros64(h<<hllPrecision)) + 1
	if rank > hllMaxRank {
		rank = hllMaxRank
	}
	if rank > d.regs[idx] {
		d.regs[idx] = rank
	}
}

// AddUint64 records an integer element (e.g. a device ID), mixed through the
// splitmix64 finalizer so sequential IDs spread across registers.
func (d *Distinct) AddUint64(v uint64) { d.AddHash(mix64(v)) }

// AddKey records a composite (integer, string) element — the shape of an
// AP's (BSSID, ESSID) pair — hashing both parts into one identity.
func (d *Distinct) AddKey(num uint64, s string) {
	d.AddHash(mix64(fnv1a64(mix64(num)|1, s)))
}

// hllAlpha is the bias-correction constant for m = 4096 registers.
var hllAlpha = 0.7213 / (1 + 1.079/float64(hllRegisters))

// Estimate returns the estimated number of distinct elements observed, with
// HyperLogLog's linear-counting correction in the small range. There is no
// large-range correction: with 64-bit hashes, collisions are negligible at
// any cardinality this repository can reach.
func (d *Distinct) Estimate() float64 {
	var sum float64
	zeros := 0
	for _, r := range d.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	m := float64(hllRegisters)
	e := hllAlpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// Count returns Estimate rounded to the nearest integer.
func (d *Distinct) Count() uint64 { return uint64(math.Round(d.Estimate())) }

// Merge folds o into d by register-wise maximum. Merging a sketch with
// itself (or any subset of what d has seen) leaves d unchanged.
func (d *Distinct) Merge(o *Distinct) {
	for i, r := range o.regs {
		if r > d.regs[i] {
			d.regs[i] = r
		}
	}
}
