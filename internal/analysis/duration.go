package analysis

import (
	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// AssocDuration reproduces Fig. 13: the distribution of consecutive time a
// device stays on the same AP, per location class. A run extends while
// successive samples of a device report the same associated pair with no
// gap larger than one missed interval.
type AssocDuration struct {
	meta       Meta
	prep       *Prep
	sketchMode bool
	cur        map[trace.DeviceID]*assocRun
	// last memoizes cur for the current device run (nil: no entry).
	last memo[trace.DeviceID, *assocRun]
	// hours holds the closed runs' durations per class.
	hours [NumAPClasses]Dist
}

// assocRun is one device's open association run; start == 0 marks a closed
// run kept for reuse (sample times are epoch seconds, never zero).
type assocRun struct {
	key   APKey
	start int64
	last  int64
}

// maxGapSeconds tolerates one missing report inside a run.
const maxGapSeconds = 1300

// NewAssocDuration returns an empty Fig. 13 accumulator whose durations go
// to the sketch store when sketchMode is set, else to the exact store.
func NewAssocDuration(meta Meta, prep *Prep, sketchMode bool) *AssocDuration {
	a := &AssocDuration{meta: meta, prep: prep, sketchMode: sketchMode, cur: make(map[trace.DeviceID]*assocRun)}
	for c := range a.hours {
		a.hours[c] = NewDist(sketchMode)
	}
	return a
}

// Add implements Analyzer. Samples of one device must arrive in time order
// (trace files and the simulator guarantee this).
func (a *AssocDuration) Add(s *trace.Sample) {
	run, ok := a.last.get(s.Device)
	if !ok {
		run = a.cur[s.Device]
		a.last.put(s.Device, run)
	}
	open := run != nil && run.start != 0
	ap := s.AssociatedAP()
	if ap == nil {
		if open {
			a.close(run)
			// The closed run stays in the map so the device's next
			// association reuses it: one assocRun per device, ever.
			*run = assocRun{}
		}
		return
	}
	key := APKey{BSSID: ap.BSSID, ESSID: ap.ESSID}
	if open && run.key == key && s.Time-run.last <= maxGapSeconds {
		run.last = s.Time
		return
	}
	if run == nil {
		run = &assocRun{}
		a.cur[s.Device] = run
		a.last.put(s.Device, run)
	} else if open {
		a.close(run)
	}
	*run = assocRun{key: key, start: s.Time, last: s.Time}
}

func (a *AssocDuration) close(run *assocRun) {
	// A run of one sample lasted one interval.
	hours := float64(run.last-run.start+600) / 3600
	a.hours[a.prep.ClassOf(run.key)].Add(hours)
}

// NewShard implements Analyzer.
func (a *AssocDuration) NewShard() Analyzer { return NewAssocDuration(a.meta, a.prep, a.sketchMode) }

// Merge implements Analyzer. Shards are device-disjoint, so open
// runs transfer without clashing.
func (a *AssocDuration) Merge(shard Analyzer) {
	o := shard.(*AssocDuration)
	for dev, run := range o.cur {
		a.cur[dev] = run
	}
	a.last.reset()
	for c := range a.hours {
		a.hours[c].Merge(&o.hours[c])
	}
}

// AssocDurationResult holds the per-class duration distributions and CCDFs.
type AssocDurationResult struct {
	// Hours[class] is the distribution of run durations.
	Hours [NumAPClasses]Dist
	// CCDF[class] is the complementary CDF of Hours[class].
	CCDF [NumAPClasses]stats.Distribution
	// P90Hours[class] is the 90th percentile (≈12 h home, 8 h office,
	// 1 h public in the paper).
	P90Hours [NumAPClasses]float64
}

// Result flushes open runs and finalizes the distributions.
func (a *AssocDuration) Result() AssocDurationResult {
	for dev, run := range a.cur {
		if run.start != 0 {
			a.close(run)
		}
		delete(a.cur, dev)
	}
	a.last.reset()
	var r AssocDurationResult
	for c := range a.hours {
		a.hours[c].finish()
		r.Hours[c] = a.hours[c]
		r.CCDF[c] = a.hours[c].CCDF()
		r.P90Hours[c] = a.hours[c].Quantile(0.90)
	}
	return r
}
