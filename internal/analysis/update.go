package analysis

import (
	"sort"
	"time"

	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// UpdateTiming reproduces Fig. 18: the timing of the 2015 iOS 8.2 update
// flash crowd, overall and for devices without an inferred home AP, plus
// the §3.7 summaries (update fraction, median delay difference, and which
// network classes no-home-AP users updated through).
//
// The update days themselves are inferred in the prepass; this analyzer is
// a *raw* (uncleaned) pass that recovers the AP class in use at each
// detected update interval.
type UpdateTiming struct {
	meta    Meta
	prep    *Prep
	release time.Time
	// viaClass[class] counts no-home-AP updaters by the AP class that
	// carried their update.
	viaClass [NumAPClasses]int
}

// NewUpdateTiming returns a Fig. 18 accumulator. release is the update's
// availability instant.
func NewUpdateTiming(meta Meta, prep *Prep, release time.Time) *UpdateTiming {
	return &UpdateTiming{meta: meta, prep: prep, release: release}
}

// Add implements Analyzer (register as a raw analyzer: update-day samples
// must not be cleaned away here).
func (u *UpdateTiming) Add(s *trace.Sample) {
	if s.OS != trace.IOS {
		return
	}
	t, ok := u.prep.UpdateTime[s.Device]
	if !ok || t != s.Time {
		return
	}
	if _, hasHome := u.prep.HomeAPOf[s.Device]; hasHome {
		return
	}
	if ap := s.AssociatedAP(); ap != nil {
		u.viaClass[u.prep.ClassOf(APKey{BSSID: ap.BSSID, ESSID: ap.ESSID})]++
	}
}

// NewShard implements Analyzer.
func (u *UpdateTiming) NewShard() Analyzer { return NewUpdateTiming(u.meta, u.prep, u.release) }

// Merge implements Analyzer.
func (u *UpdateTiming) Merge(shard Analyzer) {
	o := shard.(*UpdateTiming)
	for c := range u.viaClass {
		u.viaClass[c] += o.viaClass[c]
	}
}

// UpdateTimingResult holds the Fig. 18 curves and §3.7 summaries.
type UpdateTimingResult struct {
	TotalIOS    int
	Updated     int
	UpdatedFrac float64

	// DelaysDays are hours-precision update delays since release, in
	// days, for all updaters and the no-home-AP subset (CDF material).
	DelaysDays       []float64
	DelaysDaysNoHome []float64
	// DayPDF[d] is the fraction of updaters updating on day d after
	// release.
	DayPDF []float64

	// FirstDayFrac/FirstFourDaysFrac summarize the flash crowd (10% on
	// day one, half within four days).
	FirstDayFrac      float64
	FirstFourDaysFrac float64

	// No-home-AP adoption: "only 14% of users without inferred home APs
	// updated their device OS".
	NoHomeIOS         int
	UpdatedNoHome     int
	UpdatedNoHomeFrac float64
	// MedianDelayGapDays is median(no-home delays) - median(home delays)
	// (3.5 days in the paper).
	MedianDelayGapDays float64

	// ViaClassNoHome counts no-home updaters by the network class used
	// (eleven public, two office in the paper's nineteen inspected).
	ViaClassNoHome [NumAPClasses]int
}

// Result finalizes the analysis from prepass state plus the AP classes
// gathered during the raw pass.
func (u *UpdateTiming) Result() UpdateTimingResult {
	r := UpdateTimingResult{ViaClassNoHome: u.viaClass}
	var delaysHome []float64
	releaseUnix := u.release.Unix()
	maxDay := 0
	for dev, os := range u.prep.Devices {
		if os != trace.IOS {
			continue
		}
		r.TotalIOS++
		_, hasHome := u.prep.HomeAPOf[dev]
		if !hasHome {
			r.NoHomeIOS++
		}
		t, updated := u.prep.UpdateTime[dev]
		if !updated {
			continue
		}
		r.Updated++
		d := float64(t-releaseUnix) / 86400
		if d < 0 {
			d = 0
		}
		r.DelaysDays = append(r.DelaysDays, d)
		if int(d) > maxDay {
			maxDay = int(d)
		}
		if hasHome {
			delaysHome = append(delaysHome, d)
		} else {
			r.UpdatedNoHome++
			r.DelaysDaysNoHome = append(r.DelaysDaysNoHome, d)
		}
	}
	sort.Float64s(r.DelaysDays)
	sort.Float64s(r.DelaysDaysNoHome)
	sort.Float64s(delaysHome)
	if r.TotalIOS > 0 {
		r.UpdatedFrac = float64(r.Updated) / float64(r.TotalIOS)
	}
	if r.NoHomeIOS > 0 {
		r.UpdatedNoHomeFrac = float64(r.UpdatedNoHome) / float64(r.NoHomeIOS)
	}
	if n := len(r.DelaysDays); n > 0 {
		r.DayPDF = make([]float64, maxDay+1)
		var day1, day4 int
		for _, d := range r.DelaysDays {
			r.DayPDF[int(d)]++
			if d < 1 {
				day1++
			}
			if d < 4 {
				day4++
			}
		}
		for i := range r.DayPDF {
			r.DayPDF[i] /= float64(n)
		}
		r.FirstDayFrac = float64(day1) / float64(n)
		r.FirstFourDaysFrac = float64(day4) / float64(n)
	}
	if len(delaysHome) > 0 && len(r.DelaysDaysNoHome) > 0 {
		r.MedianDelayGapDays = stats.Median(r.DelaysDaysNoHome) - stats.Median(delaysHome)
	}
	return r
}
