package sketch

import "math"

// The one configuration every Quantile shares: 1% relative accuracy over
// [quantileMin, quantileMax], which spans 0.001 MB (1 KB) user-days up to
// terabyte outliers and sub-minute association runs up to centuries, in
// ~1.7k bins (~14 KB). Values below quantileMin (including zero and
// negatives) are counted in a dedicated below-resolution bucket and reported
// as 0, an absolute error floor of quantileMin; values above quantileMax
// clamp into the top bin. Like the HLL precision it is fixed, so every
// Quantile merges with every other.
const (
	relAcc      = 0.01
	quantileMin = 1e-3
	quantileMax = 1e12
)

// logGamma is ln γ for the log-bin base γ = (1+relAcc)/(1-relAcc):
// consecutive bin boundaries differ by a factor γ, so the geometric bin
// midpoint is within ~relAcc of every value in the bin. invLogGamma is the
// indexing constant and numBins the dense bin count covering [quantileMin,
// quantileMax].
var logGamma, invLogGamma, numBins = deriveBins()

// deriveBins computes the bin geometry in float64 arithmetic at run time. As
// constant expressions Go would evaluate them exactly and could round γ, and
// so every bin boundary, to a different float64.
func deriveBins() (logG, invLogG float64, bins int) {
	a, lo, hi := float64(relAcc), float64(quantileMin), float64(quantileMax)
	logG = math.Log((1 + a) / (1 - a))
	return logG, 1 / logG, int(math.Log(hi/lo)/logG) + 1
}

// Quantile is a DDSketch-style log-binned quantile sketch: a dense array of
// integer counts over geometrically spaced bins. Memory is fixed; Add is
// O(1); Merge is bin-wise addition and therefore exactly commutative and
// associative. All derived statistics (quantiles, Sum, Mean) are pure
// functions of the integer state, computed in fixed bin order, so they are
// bit-identical across any merge order or shard split.
//
// Not safe for concurrent use.
type Quantile struct {
	bins  []uint64
	low   uint64 // observations below quantileMin (reported as value 0)
	count uint64 // total observations, including low
}

// NewQuantile returns an empty sketch.
func NewQuantile() *Quantile {
	return &Quantile{bins: make([]uint64, numBins)}
}

// Count returns the number of observations, including below-resolution ones.
func (q *Quantile) Count() uint64 { return q.count }

// Footprint returns the sketch's approximate in-memory size in bytes. It is
// the same for every sketch: observing more samples never grows it.
func (q *Quantile) Footprint() int { return len(q.bins)*8 + 40 }

// Add records one observation.
func (q *Quantile) Add(v float64) { q.AddN(v, 1) }

// AddN records n identical observations.
func (q *Quantile) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	q.count += n
	// The negated comparison also routes NaN to the low bucket.
	if !(v >= quantileMin) {
		q.low += n
		return
	}
	// +Inf is a value above quantileMax and must clamp into the top bin; the
	// log indexing below would instead convert int(+Inf) to the minimum int64
	// and mis-route it to bin 0 via the i < 0 clamp.
	if math.IsInf(v, 1) {
		q.bins[len(q.bins)-1] += n
		return
	}
	i := int(math.Log(v/quantileMin) * invLogGamma)
	if i >= len(q.bins) {
		i = len(q.bins) - 1
	}
	if i < 0 {
		i = 0
	}
	q.bins[i] += n
}

// binValue returns the geometric midpoint of bin i, the value every
// observation in the bin is reported as.
func (q *Quantile) binValue(i int) float64 {
	return quantileMin * math.Exp((float64(i)+0.5)*logGamma)
}

// valueAtRank returns the reported value of the r-th smallest observation
// (0-based), counting the low bucket (value 0) first.
func (q *Quantile) valueAtRank(r uint64) float64 {
	if r < q.low {
		return 0
	}
	r -= q.low
	var cum uint64
	for i, n := range q.bins {
		cum += n
		if r < cum {
			return q.binValue(i)
		}
	}
	// r beyond the last observation: the maximum bin's value.
	for i := len(q.bins) - 1; i >= 0; i-- {
		if q.bins[i] > 0 {
			return q.binValue(i)
		}
	}
	return 0
}

// Quantile returns the p-th quantile (0 <= p <= 1) under the same
// linear-interpolation-between-closest-ranks convention as stats.Quantile,
// with every observation reported at its bin midpoint. The result is within
// a relative factor ~relAcc of the exact sample quantile (absolute error at
// most quantileMin below resolution). An empty sketch reports 0.
func (q *Quantile) Quantile(p float64) float64 {
	if q.count == 0 {
		return 0
	}
	if p <= 0 {
		return q.valueAtRank(0)
	}
	if p >= 1 {
		return q.valueAtRank(q.count - 1)
	}
	pos := p * float64(q.count-1)
	lo := uint64(pos)
	frac := pos - float64(lo)
	vlo := q.valueAtRank(lo)
	if frac == 0 {
		return vlo
	}
	vhi := q.valueAtRank(lo + 1)
	return vlo*(1-frac) + vhi*frac
}

// Sum returns the approximate sum of all observations: bin counts times bin
// midpoints, accumulated in fixed bin order (low-bucket observations
// contribute 0). Relative error is bounded by ~relAcc plus quantileMin per
// below-resolution observation.
func (q *Quantile) Sum() float64 {
	var sum float64
	for i, n := range q.bins {
		if n > 0 {
			sum += float64(n) * q.binValue(i)
		}
	}
	return sum
}

// Mean returns Sum divided by Count, or 0 for an empty sketch.
func (q *Quantile) Mean() float64 {
	if q.count == 0 {
		return 0
	}
	return q.Sum() / float64(q.count)
}

// Each calls fn for every non-empty bucket in ascending value order: the
// low bucket first (as value 0), then bin midpoints. The total of the
// counts passed equals Count.
func (q *Quantile) Each(fn func(value float64, n uint64)) {
	if q.low > 0 {
		fn(0, q.low)
	}
	for i, n := range q.bins {
		if n > 0 {
			fn(q.binValue(i), n)
		}
	}
}

// Merge folds o into q: bin-wise integer addition, exactly commutative and
// associative. o is unchanged.
func (q *Quantile) Merge(o *Quantile) {
	q.low += o.low
	q.count += o.count
	for i, n := range o.bins {
		q.bins[i] += n
	}
}
