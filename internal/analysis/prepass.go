package analysis

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"smartusage/internal/geo"
	"smartusage/internal/trace"
	"smartusage/internal/wifi"
)

// Rank is the per-user-day traffic classification of §2: light users are
// the 40th-60th percentile of daily download volume, heavy hitters the top
// 5%. A user may be light one day and heavy another.
type Rank uint8

// Ranks.
const (
	RankOther Rank = iota
	RankLight
	RankHeavy
)

// UserDayKey identifies one device-day.
type UserDayKey struct {
	Device trace.DeviceID
	Day    int
}

// UserDay aggregates one device-day of traffic.
type UserDay struct {
	Device trace.DeviceID
	OS     trace.OS
	Day    int

	CellRX, CellTX uint64
	WiFiRX, WiFiTX uint64
	// LTERX is the cellular download carried while camped on LTE.
	LTERX uint64

	Rank Rank
	// Excluded marks days removed by the cleaning pass (update day and
	// the day after, §2).
	Excluded bool
}

// TotalRX returns the day's total download volume.
func (u *UserDay) TotalRX() uint64 { return u.CellRX + u.WiFiRX }

// TotalTX returns the day's total upload volume.
func (u *UserDay) TotalTX() uint64 { return u.CellTX + u.WiFiTX }

// APStat is what one pass of the trace reveals about one (BSSID, ESSID)
// pair.
type APStat struct {
	Key     APKey
	Class   APClass
	Band    trace.Band
	Channel uint8
	// FirstCell is the grid cell of the first observation; APs are
	// stationary so it stands in for the AP's location.
	FirstCell geo.Cell

	// Detections counts scan observations (associated or not); MaxRSSI is
	// the strongest detection.
	Detections int
	MaxRSSI    int8

	// AssocSamples counts associated intervals; AssocBusiness counts the
	// subset on weekdays 11:00-17:00 (the office rule of §3.4.1);
	// MaxAssocRSSI is the strongest associated observation (Fig. 15).
	AssocSamples  int
	AssocBusiness int
	MaxAssocRSSI  int8

	// firstTime/firstDev identify the observation whose FirstCell (and
	// Band/Channel) snapshot is kept: the minimum (time, device) one. The
	// rule is evaluated identically whether samples arrive in stream order
	// or shard-merged, keeping the prepass order-independent.
	firstTime int64
	firstDev  trace.DeviceID
}

// Cardinality records stream sizes the prepass measures for free, so the
// second pass can size its accumulators once instead of growing them. The
// counts are exact and path-independent (each sample increments exactly one
// shard's counters, and shards sum).
type Cardinality struct {
	// Samples is the total number of samples in the stream.
	Samples int
	// AvailIntervals counts Android, non-tethered, WiFi-available samples:
	// Fig. 17's intervals before update-day excision. SketchCardinality
	// counts the same in the second pass.
	AvailIntervals int
}

// Prep is the derived per-dataset context shared by all analyzers.
type Prep struct {
	Meta Meta

	// Card holds the stream cardinalities the prepass counts.
	Card Cardinality

	// Devices maps every seen device to its OS.
	Devices map[trace.DeviceID]trace.OS

	// APs holds per-AP statistics and the inferred class of every pair
	// observed in the trace.
	APs map[APKey]*APStat

	// HomeAPOf maps a device to its inferred home AP (night-time rule);
	// devices without home networks are absent.
	HomeAPOf map[trace.DeviceID]APKey
	// HomeCell is the device's modal night-time grid cell, used to infer
	// "at home" for cellular traffic (§3.6).
	HomeCell map[trace.DeviceID]geo.Cell

	// UserDays aggregates every device-day.
	UserDays map[UserDayKey]*UserDay

	// UpdateDay/UpdateTime record, per iOS device, the inferred OS-update
	// day (campaign day index) and sample time (§3.7). Empty outside 2015.
	UpdateDay  map[trace.DeviceID]int
	UpdateTime map[trace.DeviceID]int64

	// AssocPairs records every pair each device ever associated with,
	// feeding the survey comparison of Table 8.
	AssocPairs map[trace.DeviceID]map[APKey]bool
}

// nightState is one device's evidence for the night-time home rule (§3.4.1)
// and for update detection (§3.7). The open day's counts fold into the
// device's totals when its stream reaches a later day, so the prepass holds
// this per device, not per device-day.
type nightState struct {
	// The open day: each pair's night-associated bins, and the largest
	// post-release WiFi interval with its time.
	day          int
	pairBins     tally[APKey]
	maxWiFiBytes uint64
	maxWiFiTime  int64

	// Folded from closed days: each pair's qualifying-day count, and the
	// first day whose largest interval reached updateDetectBytes (updated
	// false until one does). cellBins counts every night bin so far: the
	// home cell rule sums over days, so it needs no fold.
	qualify    tally[APKey]
	cellBins   tally[geo.Cell]
	updated    bool
	updateDay  int
	updateTime int64
}

// closeDay folds the open day into the device's totals and empties it.
func (nt *nightState) closeDay() {
	for _, pb := range nt.pairBins {
		if float64(pb.n) >= homeNightFrac*nightBins {
			nt.qualify.add(pb.key)
		}
	}
	nt.pairBins = nt.pairBins[:0]
	if !nt.updated && nt.maxWiFiBytes >= updateDetectBytes {
		nt.updated, nt.updateDay, nt.updateTime = true, nt.day, nt.maxWiFiTime
	}
	nt.maxWiFiBytes, nt.maxWiFiTime = 0, 0
}

// tally counts keys in a linear-scanned slice: a device has a few night
// pairs and cells, so a scan beats a map, as in apDayState.
type tally[K comparable] []tallyEntry[K]

type tallyEntry[K comparable] struct {
	key K
	n   int
}

// add counts one k.
func (t *tally[K]) add(k K) {
	for i := range *t {
		if (*t)[i].key == k {
			(*t)[i].n++
			return
		}
	}
	*t = append(*t, tallyEntry[K]{key: k, n: 1})
}

// ErrClosedDay is returned, wrapped with the device and both days, by a
// prepass that reads a sample for a day its device's stream has already
// left: the prepass folds a device's day when its stream moves on, so it
// needs each device's samples in time order.
var ErrClosedDay = errors.New("analysis: sample for a day its device has already closed")

// Home-inference constants (§3.4.1): the night window is 22:00-06:00 (48
// ten-minute bins); a pair qualifies as a home candidate when associated at
// least 70% of that window in one day.
const (
	nightBins     = 48
	homeNightFrac = 0.70
)

// updateDetectBytes is the single-interval WiFi download that flags an iOS
// update: the 565 MB image arrives within one or two 10-minute reports,
// while ordinary usage never moves hundreds of megabytes in one interval
// (the daily *median* is 50.7 MB, §3.7).
const updateDetectBytes = 400 << 20

// prepShard accumulates one device-partition's share of the first pass. The
// pass drivers run one per worker (or per in-memory shard) and fold them
// with finishPrep. All of its state is keyed (directly
// or through UserDayKey) by device except aps, which finishPrep merges.
type prepShard struct {
	meta        Meta
	releaseUnix int64
	detect      bool // update detection enabled (2015 campaign)

	card       Cardinality
	devices    map[trace.DeviceID]trace.OS
	aps        map[APKey]*APStat
	userDays   map[UserDayKey]*UserDay
	nights     map[trace.DeviceID]*nightState
	assocPairs map[trace.DeviceID]map[APKey]bool

	// Memos of the current device run and of the current device-day run's
	// userDays entry (nil until its first untethered sample).
	dev memo[trace.DeviceID, prepDevice]
	day memo[UserDayKey, *UserDay]
}

// prepDevice is what prepShard.add resolves once per device run: the OS
// last written to devices, the device's assocPairs set (nil until its
// first association) and its night state.
type prepDevice struct {
	os    trace.OS
	pairs map[APKey]bool
	night *nightState
}

// newPrepShard returns an empty first-pass accumulator.
func newPrepShard(meta Meta, updateRelease *time.Time) *prepShard {
	ps := &prepShard{
		meta:       meta,
		devices:    make(map[trace.DeviceID]trace.OS),
		aps:        make(map[APKey]*APStat),
		userDays:   make(map[UserDayKey]*UserDay),
		nights:     make(map[trace.DeviceID]*nightState),
		assocPairs: make(map[trace.DeviceID]map[APKey]bool),
	}
	if updateRelease != nil {
		ps.detect = true
		ps.releaseUnix = updateRelease.Unix()
	}
	return ps
}

// add observes one sample. Samples of one device must arrive in time order:
// a sample for a day before the device's latest returns ErrClosedDay.
func (ps *prepShard) add(s *trace.Sample) error {
	meta := ps.meta
	ps.card.Samples++
	if !s.Tethered && s.OS == trace.Android && s.WiFiState == trace.WiFiOn {
		ps.card.AvailIntervals++
	}
	day := meta.Day(s.Time)
	if day < 0 || day >= meta.Days {
		return fmt.Errorf("analysis: sample at %d outside campaign window", s.Time)
	}
	dev, ok := ps.dev.get(s.Device)
	if !ok || dev.os != s.OS {
		ps.devices[s.Device] = s.OS
		dev = prepDevice{os: s.OS, pairs: ps.assocPairs[s.Device], night: ps.nights[s.Device]}
		if dev.night == nil {
			dev.night = &nightState{day: day}
			ps.nights[s.Device] = dev.night
		}
		ps.dev.put(s.Device, dev)
	}
	na := dev.night
	if day != na.day {
		if day < na.day {
			return fmt.Errorf("%w: device %d sent day %d after day %d", ErrClosedDay, s.Device, day, na.day)
		}
		na.closeDay()
		na.day = day
	}

	// Volumes (tethered intervals are excluded everywhere, §2).
	if !s.Tethered {
		key := UserDayKey{Device: s.Device, Day: day}
		ud, ok := ps.day.get(key)
		if !ok {
			if ud = ps.userDays[key]; ud == nil {
				ud = &UserDay{Device: s.Device, OS: s.OS, Day: day}
				ps.userDays[key] = ud
			}
			ps.day.put(key, ud)
		}
		ud.CellRX += s.CellRX
		ud.CellTX += s.CellTX
		ud.WiFiRX += s.WiFiRX
		ud.WiFiTX += s.WiFiTX
		if s.RAT == trace.RATLTE {
			ud.LTERX += s.CellRX
		}
	}

	hour := meta.Hour(s.Time)
	night := hour >= 22 || hour < 6
	weekday := meta.Weekday(s.Time)
	business := weekday && hour >= 10 && hour < 18

	if night {
		na.cellBins.add(geo.Cell{CX: int(s.GeoCX), CY: int(s.GeoCY)})
	}
	if ps.detect && s.OS == trace.IOS && s.Time >= ps.releaseUnix &&
		s.WiFiRX > na.maxWiFiBytes {
		na.maxWiFiBytes = s.WiFiRX
		na.maxWiFiTime = s.Time
	}

	// AP observations.
	for i := range s.APs {
		obs := &s.APs[i]
		k := APKey{BSSID: obs.BSSID, ESSID: obs.ESSID}
		st := ps.aps[k]
		switch {
		case st == nil:
			st = &APStat{
				Key: k, Band: obs.Band, Channel: obs.Channel,
				FirstCell:    geo.Cell{CX: int(s.GeoCX), CY: int(s.GeoCY)},
				MaxRSSI:      -128,
				MaxAssocRSSI: -128,
				firstTime:    s.Time,
				firstDev:     s.Device,
			}
			ps.aps[k] = st
		case s.Time < st.firstTime || (s.Time == st.firstTime && s.Device < st.firstDev):
			// A strictly earlier (time, device) observation takes over the
			// first-observation snapshot, so the result does not depend on
			// arrival order.
			st.firstTime, st.firstDev = s.Time, s.Device
			st.FirstCell = geo.Cell{CX: int(s.GeoCX), CY: int(s.GeoCY)}
			st.Band, st.Channel = obs.Band, obs.Channel
		}
		st.Detections++
		if obs.RSSI > st.MaxRSSI {
			st.MaxRSSI = obs.RSSI
		}
		if obs.Associated {
			if dev.pairs == nil {
				dev.pairs = make(map[APKey]bool, 2)
				ps.assocPairs[s.Device] = dev.pairs
				ps.dev.put(s.Device, dev)
			}
			dev.pairs[k] = true
			st.AssocSamples++
			if business {
				st.AssocBusiness++
			}
			if obs.RSSI > st.MaxAssocRSSI {
				st.MaxAssocRSSI = obs.RSSI
			}
			if night {
				na.pairBins.add(k)
			}
		}
	}
	return nil
}

// mergeAPStat folds one shard's statistics for pair k into dst.
func mergeAPStat(dst map[APKey]*APStat, k APKey, src *APStat) {
	st := dst[k]
	if st == nil {
		dst[k] = src
		return
	}
	if src.firstTime < st.firstTime || (src.firstTime == st.firstTime && src.firstDev < st.firstDev) {
		st.firstTime, st.firstDev = src.firstTime, src.firstDev
		st.FirstCell = src.FirstCell
		st.Band, st.Channel = src.Band, src.Channel
	}
	st.Detections += src.Detections
	if src.MaxRSSI > st.MaxRSSI {
		st.MaxRSSI = src.MaxRSSI
	}
	st.AssocSamples += src.AssocSamples
	st.AssocBusiness += src.AssocBusiness
	if src.MaxAssocRSSI > st.MaxAssocRSSI {
		st.MaxAssocRSSI = src.MaxAssocRSSI
	}
}

// finishPrep folds device-disjoint shards into one Prep and runs the
// finalizers. Every map except aps is keyed by device, so the fold is a
// disjoint union; aps entries for the same pair are merged field-wise. Each
// device's open day closes here.
func finishPrep(meta Meta, shards []*prepShard) *Prep {
	p := &Prep{
		Meta:       meta,
		Devices:    make(map[trace.DeviceID]trace.OS),
		APs:        make(map[APKey]*APStat),
		HomeAPOf:   make(map[trace.DeviceID]APKey),
		HomeCell:   make(map[trace.DeviceID]geo.Cell),
		UserDays:   make(map[UserDayKey]*UserDay),
		UpdateDay:  make(map[trace.DeviceID]int),
		UpdateTime: make(map[trace.DeviceID]int64),
		AssocPairs: make(map[trace.DeviceID]map[APKey]bool),
	}
	nights := make(map[trace.DeviceID]*nightState)
	for _, ps := range shards {
		p.Card.Samples += ps.card.Samples
		p.Card.AvailIntervals += ps.card.AvailIntervals
		for dev, os := range ps.devices {
			p.Devices[dev] = os
		}
		for k, st := range ps.aps {
			mergeAPStat(p.APs, k, st)
		}
		for key, ud := range ps.userDays {
			p.UserDays[key] = ud
		}
		for dev, na := range ps.nights {
			na.closeDay()
			nights[dev] = na
		}
		for dev, pairs := range ps.assocPairs {
			p.AssocPairs[dev] = pairs
		}
	}
	p.inferHomes(nights)
	p.classifyAPs()
	p.detectUpdates(nights)
	p.rankDays()
	return p
}

// inferHomes picks each device's modal qualifying pair (the night-time rule
// held on the most days) and its modal night cell.
func (p *Prep) inferHomes(nights map[trace.DeviceID]*nightState) {
	for dev, na := range nights {
		if len(na.qualify) > 0 {
			var best APKey
			bestN := 0
			for _, q := range na.qualify {
				if q.n > bestN || (q.n == bestN && pairLess(q.key, best)) {
					best, bestN = q.key, q.n
				}
			}
			p.HomeAPOf[dev] = best
		}
		if len(na.cellBins) > 0 {
			var best geo.Cell
			bestN := 0
			for _, c := range na.cellBins {
				cell := c.key
				if c.n > bestN || (c.n == bestN && (cell.CX < best.CX || (cell.CX == best.CX && cell.CY < best.CY))) {
					best, bestN = cell, c.n
				}
			}
			p.HomeCell[dev] = best
		}
	}
}

// pairLess is a deterministic tiebreak.
func pairLess(a, b APKey) bool {
	if a.BSSID != b.BSSID {
		return a.BSSID < b.BSSID
	}
	return a.ESSID < b.ESSID
}

// classifyAPs assigns classes with the paper's precedence: inferred home
// pairs first (including FON-style public ESSIDs used around the clock at
// home, §3.4.1), then the public ESSID registry, then the weekday-business
// office rule, then other.
func (p *Prep) classifyAPs() {
	homes := make(map[APKey]bool, len(p.HomeAPOf))
	for _, k := range p.HomeAPOf {
		homes[k] = true
	}
	const (
		officeFrac       = 0.60
		officeMinSamples = 12 // >= 2 h of association evidence
	)
	for k, st := range p.APs {
		switch {
		case homes[k]:
			st.Class = APHome
		case wifi.IsPublicESSID(k.ESSID):
			st.Class = APPublic
		case st.AssocSamples >= officeMinSamples &&
			float64(st.AssocBusiness) >= officeFrac*float64(st.AssocSamples):
			st.Class = APOffice
		default:
			st.Class = APOther
		}
	}
}

// detectUpdates takes, per iOS device, the first day at or after the
// release whose WiFi download reached the detection threshold, and marks
// the day and its follower excluded from cleaned analyses. Without a
// release no sample feeds the evidence, so no device is marked.
func (p *Prep) detectUpdates(nights map[trace.DeviceID]*nightState) {
	for dev, na := range nights {
		if !na.updated || p.Devices[dev] != trace.IOS {
			continue
		}
		p.UpdateDay[dev] = na.updateDay
		p.UpdateTime[dev] = na.updateTime
		for _, day := range []int{na.updateDay, na.updateDay + 1} {
			if ud := p.UserDays[UserDayKey{Device: dev, Day: day}]; ud != nil {
				ud.Excluded = true
			}
		}
	}
}

// rankDays classifies every non-excluded device-day as light (40th-60th
// percentile of that day's download volumes), heavy (top 5%), or other.
// Days below 0.1 MB are omitted from the ranking, as in Fig. 3.
func (p *Prep) rankDays() {
	byDay := make(map[int][]*UserDay)
	for _, ud := range p.UserDays {
		if ud.Excluded || ud.TotalRX() < 100_000 {
			continue
		}
		byDay[ud.Day] = append(byDay[ud.Day], ud)
	}
	for _, days := range byDay {
		sort.Slice(days, func(i, j int) bool {
			if days[i].TotalRX() != days[j].TotalRX() {
				return days[i].TotalRX() < days[j].TotalRX()
			}
			return days[i].Device < days[j].Device
		})
		n := len(days)
		for i, ud := range days {
			q := float64(i) / float64(n)
			switch {
			case q >= 0.95:
				ud.Rank = RankHeavy
			case q >= 0.40 && q < 0.60:
				ud.Rank = RankLight
			default:
				ud.Rank = RankOther
			}
		}
	}
}

// RankOf returns the rank of a device-day (RankOther when unknown).
func (p *Prep) RankOf(dev trace.DeviceID, day int) Rank {
	if ud, ok := p.UserDays[UserDayKey{Device: dev, Day: day}]; ok {
		return ud.Rank
	}
	return RankOther
}

// ClassOf returns the class of a pair (APOther when never observed).
func (p *Prep) ClassOf(k APKey) APClass {
	if st, ok := p.APs[k]; ok {
		return st.Class
	}
	return APOther
}

// AtHome reports whether the sample was taken in the device's home grid
// cell.
func (p *Prep) AtHome(s *trace.Sample) bool {
	home, ok := p.HomeCell[s.Device]
	if !ok {
		return false
	}
	return home.CX == int(s.GeoCX) && home.CY == int(s.GeoCY)
}

// The memoized forms of the lookups above, for analyzers that resolve them
// per sample; m is the calling analyzer's own memo.

// rankMemo is RankOf through m.
func (p *Prep) rankMemo(m *memo[UserDayKey, Rank], k UserDayKey) Rank {
	r, ok := m.get(k)
	if !ok {
		r = p.RankOf(k.Device, k.Day)
		m.put(k, r)
	}
	return r
}

// classMemo is ClassOf through m.
func (p *Prep) classMemo(m *memo[APKey, APClass], k APKey) APClass {
	c, ok := m.get(k)
	if !ok {
		c = p.ClassOf(k)
		m.put(k, c)
	}
	return c
}

// homeCell is a device's HomeCell entry, present or not.
type homeCell struct {
	cell  geo.Cell
	known bool
}

// atHomeMemo is AtHome through m.
func (p *Prep) atHomeMemo(m *memo[trace.DeviceID, homeCell], s *trace.Sample) bool {
	h, ok := m.get(s.Device)
	if !ok {
		h.cell, h.known = p.HomeCell[s.Device]
		m.put(s.Device, h)
	}
	return h.known && h.cell.CX == int(s.GeoCX) && h.cell.CY == int(s.GeoCY)
}
