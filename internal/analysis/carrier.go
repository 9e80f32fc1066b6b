package analysis

import "smartusage/internal/trace"

// CarrierRatios verifies §3.3.4's side claim: "there is no difference in
// the WiFi-user ratios among three cellular carriers providing iPhones" —
// WiFi posture is a device-OS property, not a carrier property. It
// computes the mean WiFi-user ratio per carrier for each OS.
type CarrierRatios struct {
	assoc [2][3]float64
	total [2][3]float64
}

// NewCarrierRatios returns an empty §3.3.4 carrier accumulator.
func NewCarrierRatios() *CarrierRatios { return &CarrierRatios{} }

// Add implements Analyzer.
func (cr *CarrierRatios) Add(s *trace.Sample) {
	if !s.OS.Valid() || s.Carrier > 2 {
		return
	}
	cr.total[s.OS][s.Carrier]++
	if s.WiFiState == trace.WiFiAssociated {
		cr.assoc[s.OS][s.Carrier]++
	}
}

// NewShard implements Analyzer.
func (cr *CarrierRatios) NewShard() Analyzer { return NewCarrierRatios() }

// Merge implements Analyzer.
func (cr *CarrierRatios) Merge(shard Analyzer) {
	o := shard.(*CarrierRatios)
	for os := 0; os < 2; os++ {
		for c := 0; c < 3; c++ {
			cr.assoc[os][c] += o.assoc[os][c]
			cr.total[os][c] += o.total[os][c]
		}
	}
}

// CarrierRatiosResult holds per-OS, per-carrier WiFi-user ratios.
type CarrierRatiosResult struct {
	// Ratio[os][carrier] is the share of that slice's intervals spent
	// associated.
	Ratio [2][3]float64
	// MaxSpreadIOS is the largest pairwise difference among the three
	// iOS carrier ratios; the paper finds it negligible.
	MaxSpreadIOS float64
}

// Result finalizes the accumulator.
func (cr *CarrierRatios) Result() CarrierRatiosResult {
	var r CarrierRatiosResult
	for os := 0; os < 2; os++ {
		for c := 0; c < 3; c++ {
			if cr.total[os][c] > 0 {
				r.Ratio[os][c] = cr.assoc[os][c] / cr.total[os][c]
			}
		}
	}
	ios := r.Ratio[trace.IOS]
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			d := ios[i] - ios[j]
			if d < 0 {
				d = -d
			}
			if d > r.MaxSpreadIOS {
				r.MaxSpreadIOS = d
			}
		}
	}
	return r
}
