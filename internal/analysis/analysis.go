// Package analysis implements the paper's evaluation pipeline: every table
// and figure of Fukuda et al. (IMC 2015) has a corresponding analyzer here.
//
// The pipeline is two-pass and fully streaming:
//
//  1. BuildPrep scans the trace once and derives the per-device context the
//     paper infers before its analyses: home AP and home grid cell
//     (§3.4.1's night-time rule), AP location classes (home / public /
//     office / other), per-user-day traffic totals and the light-user /
//     heavy-hitter ranking (§2), and iOS-update days (§3.7).
//  2. Analyzers consume a second pass, each accumulating one experiment.
//     The Run helper applies the paper's cleaning rules (tethering removal
//     and update-day excision, §2) before cleaned analyzers see a sample.
//
// Each pass is one function (BuildPrep, Run) that reads an Input: a Source
// streamed on a number of workers (Stream), or a campaign held in memory as
// device shards (*Shards). Either way samples are partitioned by device
// across workers and shard results merge deterministically; one worker is the
// sequential case. See shard.go for the engine and the merge contract.
//
// Each figure has one analyzer. The quantile figures — daily volumes (Figs.
// 3-4, Table 3, from the prepass user-days) and association durations (Fig.
// 13) — hold their distributions in a Dist, whose store is exact sorted
// samples or a bounded-memory quantile sketch; core.Options.SketchMode picks
// the store and nothing else (dist.go). Sketch mode also runs
// SketchCardinality for HLL panel and AP-census estimates.
//
// Analyzer results are plain data structs that renderers print and tests
// assert against.
package analysis

import (
	"fmt"
	"os"
	"time"

	"smartusage/internal/config"
	"smartusage/internal/trace"
)

// Meta describes the dataset under analysis.
type Meta struct {
	Year  int
	Start time.Time // local midnight of day 0
	Days  int
	Loc   *time.Location

	// fixedOff caches Loc's UTC offset plus one when the zone's offset is
	// constant across the campaign window (true for JST, which never
	// observes DST). Zero means "unknown": the clock methods fall back to
	// the time package. The cache exists because Hour/Weekday run per
	// sample per pass — hundreds of millions of time-zone conversions per
	// full-scale study — and a fixed-zone conversion is three integer ops.
	fixedOff int64
}

// MetaFor derives analysis metadata from a campaign configuration.
func MetaFor(c config.Campaign) Meta {
	m := Meta{Year: c.Year, Start: c.Start, Days: c.Days, Loc: config.JST}
	m.initFastClock()
	return m
}

// initFastClock probes Loc at both ends of the campaign and enables the
// fixed-offset fast path when the offset never changes. Metas built as plain
// literals skip this and simply take the (identical-result) slow path.
func (m *Meta) initFastClock() {
	if m.Loc == nil {
		return
	}
	_, a := m.Start.In(m.Loc).Zone()
	_, b := m.Start.AddDate(0, 0, m.Days+1).In(m.Loc).Zone()
	if a == b {
		m.fixedOff = int64(a) + 1
	}
}

// Day returns the 0-based campaign day of a sample time, which may be out
// of range for samples outside the campaign window (negative before it).
func (m Meta) Day(unix int64) int {
	return int(floorDiv(unix-m.Start.Unix(), 86400))
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// floorMod is the non-negative remainder matching floorDiv.
func floorMod(a, b int64) int64 { return a - floorDiv(a, b)*b }

// HourOfWeek returns the sample's hour-of-week bin, 0..167, with 0 =
// Sunday 00:00 local time.
func (m Meta) HourOfWeek(unix int64) int {
	if m.fixedOff != 0 {
		local := unix + m.fixedOff - 1
		return m.weekdayFast(local)*24 + int(floorMod(local, 86400)/3600)
	}
	t := time.Unix(unix, 0).In(m.Loc)
	return int(t.Weekday())*24 + t.Hour()
}

// Hour returns the local hour of day, 0..23.
func (m Meta) Hour(unix int64) int {
	if m.fixedOff != 0 {
		return int(floorMod(unix+m.fixedOff-1, 86400) / 3600)
	}
	return time.Unix(unix, 0).In(m.Loc).Hour()
}

// weekdayFast maps a local Unix second to its weekday (0 = Sunday), using
// the fact that the epoch fell on a Thursday.
func (m Meta) weekdayFast(local int64) int {
	return int(floorMod(floorDiv(local, 86400)+4, 7))
}

// Weekday reports whether the sample falls Monday-Friday.
func (m Meta) Weekday(unix int64) bool {
	if m.fixedOff != 0 {
		wd := m.weekdayFast(unix + m.fixedOff - 1)
		return wd >= 1 && wd <= 5
	}
	wd := time.Unix(unix, 0).In(m.Loc).Weekday()
	return wd >= time.Monday && wd <= time.Friday
}

// HourOfWeekOccurrences returns how many times each hour-of-week bin occurs
// in the campaign, used to convert binned byte totals into rates.
func (m Meta) HourOfWeekOccurrences() [168]int {
	var occ [168]int
	for d := 0; d < m.Days; d++ {
		t := m.Start.AddDate(0, 0, d)
		base := int(t.Weekday()) * 24
		for h := 0; h < 24; h++ {
			occ[base+h]++
		}
	}
	return occ
}

// Source is a restartable stream of samples: calling it runs one full pass,
// invoking fn for every sample. The *trace.Sample passed to fn is reused;
// fn must copy retained data.
//
// Each device's samples must come in time order, though devices may
// interleave: BuildPrep, APsPerDay and AssocDuration close a device's day
// when its stream moves on, and BuildPrep rejects a sample for a day already
// closed with ErrClosedDay. Trace files, tiermerge output and the simulator
// deliver that order.
type Source func(fn func(*trace.Sample) error) error

// FileSource streams a binary trace file.
func FileSource(path string) Source {
	return func(fn func(*trace.Sample) error) error {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("analysis: open trace: %w", err)
		}
		defer f.Close()
		return trace.NewReader(f).ReadAll(fn)
	}
}

// SliceSource streams an in-memory sample slice.
func SliceSource(samples []trace.Sample) Source {
	return func(fn func(*trace.Sample) error) error {
		for i := range samples {
			if err := fn(&samples[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// APKey identifies an access point the way the paper does: by its
// (BSSID, ESSID) pair (§3.4.1).
type APKey struct {
	BSSID trace.BSSID
	ESSID string
}

// APClass is the analysis-side location class of an AP. It is inferred
// purely from the trace (never from simulator ground truth), following
// §3.4.1: home by the night-time rule, public by ESSID, office by the
// weekday-business-hours rule, other for the rest.
type APClass uint8

// AP classes.
const (
	APHome APClass = iota
	APPublic
	APOffice
	APOther
	NumAPClasses
)

// String implements fmt.Stringer.
func (c APClass) String() string {
	switch c {
	case APHome:
		return "home"
	case APPublic:
		return "public"
	case APOffice:
		return "office"
	case APOther:
		return "other"
	}
	return fmt.Sprintf("apclass(%d)", uint8(c))
}

// Analyzer is one streaming experiment: it observes samples (optionally
// augmented with prepass context) and exposes its result through its own
// typed accessor. A pass over several device shards feeds each shard its own
// NewShard clone and folds the clones back with Merge.
type Analyzer interface {
	// Add observes one (cleaned) sample.
	Add(s *trace.Sample)
	// NewShard returns a fresh, empty analyzer of the same kind and
	// configuration, safe to feed from another goroutine.
	NewShard() Analyzer
	// Merge folds a shard previously returned by NewShard into the
	// receiver. Callers guarantee no two merged shards saw the same
	// device, and always merge in fixed shard order.
	Merge(shard Analyzer)
}

// updateDay is one device's Prep.UpdateDay entry, present or not.
type updateDay struct {
	day     int
	updated bool
}

// updateMemo memoizes Prep.UpdateDay per device run for dispatch.
type updateMemo = memo[trace.DeviceID, updateDay]

// dispatch applies the cleaning rules to one sample and feeds the
// analyzers. It is the single definition of the second-pass semantics, which
// Run applies to either Input form. upd memoizes the sample's device's update
// day; each dispatching goroutine passes its own.
func dispatch(s *trace.Sample, prep *Prep, cleaned []Analyzer, raw []Analyzer, upd *updateMemo) {
	for _, a := range raw {
		a.Add(s)
	}
	if s.Tethered {
		return
	}
	if prep != nil {
		u, ok := upd.get(s.Device)
		if !ok {
			u.day, u.updated = prep.UpdateDay[s.Device]
			upd.put(s.Device, u)
		}
		if u.updated {
			day := prep.Meta.Day(s.Time)
			if day == u.day || day == u.day+1 {
				return
			}
		}
	}
	for _, a := range cleaned {
		a.Add(s)
	}
}
