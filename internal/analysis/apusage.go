package analysis

import (
	"sort"

	"smartusage/internal/geo"
	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// APCensus is Table 4: unique estimated APs per class. Following the
// paper's accounting, home counts inferred home networks, public counts
// every *detected* public pair (Android scans see non-associated APs), and
// other counts the remaining *associated* pairs with office broken out as a
// subset.
type APCensus struct {
	Home   int
	Public int
	Other  int
	Office int // subset of Other
	Total  int
}

// APCensus computes Table 4 from the prepass.
func (p *Prep) APCensus() APCensus {
	var c APCensus
	homes := make(map[APKey]bool, len(p.HomeAPOf))
	for _, k := range p.HomeAPOf {
		homes[k] = true
	}
	c.Home = len(homes)
	for _, st := range p.APs {
		switch st.Class {
		case APPublic:
			c.Public++
		case APOffice:
			if st.AssocSamples > 0 {
				c.Other++
				c.Office++
			}
		case APOther:
			if st.AssocSamples > 0 {
				c.Other++
			}
		}
	}
	c.Total = c.Home + c.Public + c.Other
	return c
}

// APDensity is Fig. 10: per-5km-cell counts of unique home and public APs,
// with the paper's coverage summaries.
type APDensity struct {
	Home   *stats.Grid
	Public *stats.Grid
	// Coverage summaries (§3.4.1): cells with >= 1 and >= 100 public APs.
	PublicCellsAny int
	PublicCells100 int
	// Strong public coverage (§3.5): cells with >= 100 detected public
	// APs whose best RSSI clears -70 dBm, split by band.
	StrongCells24_100 int
	StrongCells5_100  int
}

// APDensity computes Fig. 10 from the prepass.
func (p *Prep) APDensity() APDensity {
	d := APDensity{
		Home:   stats.NewGrid(geo.GridSize, geo.GridSize),
		Public: stats.NewGrid(geo.GridSize, geo.GridSize),
	}
	strong24 := stats.NewGrid(geo.GridSize, geo.GridSize)
	strong5 := stats.NewGrid(geo.GridSize, geo.GridSize)
	for _, st := range p.APs {
		cell := st.FirstCell
		switch st.Class {
		case APHome:
			d.Home.Add(cell.CX, cell.CY)
		case APPublic:
			d.Public.Add(cell.CX, cell.CY)
			if st.MaxRSSI >= -70 {
				if st.Band == trace.Band5 {
					strong5.Add(cell.CX, cell.CY)
				} else {
					strong24.Add(cell.CX, cell.CY)
				}
			}
		}
	}
	d.PublicCellsAny = d.Public.CellsAtLeast(1)
	d.PublicCells100 = d.Public.CellsAtLeast(100)
	d.StrongCells24_100 = strong24.CellsAtLeast(100)
	d.StrongCells5_100 = strong5.CellsAtLeast(100)
	return d
}

// BandShare is Fig. 14: the fraction of unique *associated* APs operating
// at 5 GHz, per location class.
type BandShare struct {
	Home   float64
	Office float64
	Public float64
}

// BandShare computes Fig. 14 from the prepass.
func (p *Prep) BandShare() BandShare {
	var n, n5 [NumAPClasses]int
	for _, st := range p.APs {
		if st.AssocSamples == 0 {
			continue
		}
		n[st.Class]++
		if st.Band == trace.Band5 {
			n5[st.Class]++
		}
	}
	frac := func(c APClass) float64 {
		if n[c] == 0 {
			return 0
		}
		return float64(n5[c]) / float64(n[c])
	}
	return BandShare{Home: frac(APHome), Office: frac(APOffice), Public: frac(APPublic)}
}

// HPO is one row of Table 5: a count of associated networks per day split
// by class — Home, Public, Other.
type HPO struct {
	H, P, O int
}

// APsPerDay reproduces Fig. 12 and Table 5: how many distinct networks
// each device associates with per day, and the home/public/other
// composition of those sets.
//
// Samples of one device must arrive in time order, as AssocDuration also
// requires: a device's set is folded into the counts the moment its stream
// reaches the next day, so the analyzer holds one day's set per device, not
// one per user-day. Trace files, the simulator, Shards, the streaming fan-out
// and tiermerge.MergeDirs all deliver that order. Excluded days never arrive:
// dispatch drops them before any cleaned analyzer.
type APsPerDay struct {
	meta Meta
	prep *Prep
	cur  map[trace.DeviceID]*apDayState

	counts      [3][5]uint64
	totals      [3]uint64
	multi       uint64
	breakdown   map[HPO]uint64
	maxNetworks int
}

// apDayState is one device's current-day distinct association set; per-day
// network counts are tiny (the paper's maximum is 8), so a linear-scanned
// slice beats a map.
type apDayState struct {
	day   int
	pairs []APKey
}

// NewAPsPerDay returns an empty Fig. 12 / Table 5 accumulator.
func NewAPsPerDay(meta Meta, prep *Prep) *APsPerDay {
	return &APsPerDay{
		meta: meta, prep: prep,
		cur:       make(map[trace.DeviceID]*apDayState),
		breakdown: make(map[HPO]uint64),
	}
}

// Add implements Analyzer.
func (a *APsPerDay) Add(s *trace.Sample) {
	ap := s.AssociatedAP()
	if ap == nil {
		return
	}
	day := a.meta.Day(s.Time)
	st := a.cur[s.Device]
	if st == nil {
		st = &apDayState{day: day}
		a.cur[s.Device] = st
	} else if st.day != day {
		a.flush(s.Device, st)
		st.day = day
		st.pairs = st.pairs[:0]
	}
	key := APKey{BSSID: ap.BSSID, ESSID: ap.ESSID}
	for _, p := range st.pairs {
		if p == key {
			return
		}
	}
	st.pairs = append(st.pairs, key)
}

// flush folds one completed user-day set, never empty, into the composition
// counters.
func (a *APsPerDay) flush(dev trace.DeviceID, st *apDayState) {
	n := len(st.pairs)
	if n > a.maxNetworks {
		a.maxNetworks = n
	}
	var hpo HPO
	for _, pair := range st.pairs {
		switch a.prep.ClassOf(pair) {
		case APHome:
			hpo.H++
		case APPublic:
			hpo.P++
		default:
			hpo.O++
		}
	}
	a.breakdown[hpo]++
	slot := n
	if slot > 4 {
		slot = 4
	}
	a.counts[0][slot]++
	a.totals[0]++
	switch a.prep.RankOf(dev, st.day) {
	case RankHeavy:
		a.counts[1][slot]++
		a.totals[1]++
	case RankLight:
		a.counts[2][slot]++
		a.totals[2]++
	}
	if n >= 2 {
		a.multi++
	}
}

// NewShard implements ShardedAnalyzer.
func (a *APsPerDay) NewShard() Analyzer { return NewAPsPerDay(a.meta, a.prep) }

// Merge implements ShardedAnalyzer. Shards are device-disjoint, so open
// days transfer without clashing.
func (a *APsPerDay) Merge(shard Analyzer) {
	o := shard.(*APsPerDay)
	for dev, st := range o.cur {
		a.cur[dev] = st
	}
	for b := range a.counts {
		for k := range a.counts[b] {
			a.counts[b][k] += o.counts[b][k]
		}
		a.totals[b] += o.totals[b]
	}
	a.multi += o.multi
	for k, n := range o.breakdown {
		a.breakdown[k] += n
	}
	if o.maxNetworks > a.maxNetworks {
		a.maxNetworks = o.maxNetworks
	}
}

// APsPerDayResult summarizes association diversity.
type APsPerDayResult struct {
	// CountShares[rank][k] is the share of device-days associating with
	// exactly k networks (k = 1..3; index 4 aggregates 4+), for rank
	// buckets 0 = all, 1 = heavy, 2 = light (the Fig. 12 columns).
	CountShares [3][5]float64
	// MultiAPShare is the share of WiFi-using device-days on >= 2
	// networks (">40% by 2015", §3.4).
	MultiAPShare float64
	// Breakdown maps each HPO composition to its share of WiFi-using
	// device-days (Table 5).
	Breakdown map[HPO]float64
	// MaxNetworks is the largest per-day network count observed (8 in the
	// paper's datasets).
	MaxNetworks int
}

// Result flushes the open days and finalizes the shares.
func (a *APsPerDay) Result() APsPerDayResult {
	for dev, st := range a.cur {
		a.flush(dev, st)
		delete(a.cur, dev)
	}
	r := APsPerDayResult{Breakdown: make(map[HPO]float64), MaxNetworks: a.maxNetworks}
	for b := range r.CountShares {
		if a.totals[b] == 0 {
			continue
		}
		for k := range r.CountShares[b] {
			r.CountShares[b][k] = float64(a.counts[b][k]) / float64(a.totals[b])
		}
	}
	if a.totals[0] > 0 {
		r.MultiAPShare = float64(a.multi) / float64(a.totals[0])
		for k, n := range a.breakdown {
			r.Breakdown[k] = float64(n) / float64(a.totals[0])
		}
	}
	return r
}

// TopBreakdown returns the Table 5 rows sorted by share, descending.
func (r APsPerDayResult) TopBreakdown() []struct {
	HPO   HPO
	Share float64
} {
	out := make([]struct {
		HPO   HPO
		Share float64
	}, 0, len(r.Breakdown))
	for k, v := range r.Breakdown {
		out = append(out, struct {
			HPO   HPO
			Share float64
		}{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		a, b := out[i].HPO, out[j].HPO
		if a.H != b.H {
			return a.H < b.H
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return out
}
