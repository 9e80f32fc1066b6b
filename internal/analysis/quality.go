package analysis

import (
	"sort"

	"smartusage/internal/stats"
	"smartusage/internal/trace"
	"smartusage/internal/wifi"
)

// RSSIResult is Fig. 15: the density of per-AP maximum associated RSSI at
// 2.4 GHz, for home and public networks.
type RSSIResult struct {
	HomePDF   []stats.Point
	PublicPDF []stats.Point
	MeanHome  float64
	MeanPub   float64
	// WeakFrac is the fraction of associated networks below -70 dBm (3%
	// of home, 12% of public in 2015, §3.4.4).
	WeakFracHome float64
	WeakFracPub  float64
}

// RSSI computes Fig. 15 from the prepass.
func (p *Prep) RSSI() RSSIResult {
	var home, pub []float64
	for _, st := range p.APs {
		if st.AssocSamples == 0 || st.Band != trace.Band24 {
			continue
		}
		v := float64(st.MaxAssocRSSI)
		switch st.Class {
		case APHome:
			home = append(home, v)
		case APPublic:
			pub = append(pub, v)
		}
	}
	// p.APs is a map: sort so the distributions are independent of
	// iteration order (histogram/mean are order-insensitive today, but the
	// sorted form keeps that true under future quantile use).
	sort.Float64s(home)
	sort.Float64s(pub)
	pdf := func(xs []float64) []stats.Point {
		if len(xs) == 0 {
			return nil
		}
		return stats.NewHistogram(xs, -90, -20, 35).PDF()
	}
	weak := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		n := 0
		for _, x := range xs {
			if x < wifi.StrongRSSI {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	return RSSIResult{
		HomePDF:      pdf(home),
		PublicPDF:    pdf(pub),
		MeanHome:     stats.Mean(home),
		MeanPub:      stats.Mean(pub),
		WeakFracHome: weak(home),
		WeakFracPub:  weak(pub),
	}
}

// ChannelsResult is Fig. 16: the distribution of associated 2.4 GHz
// channels for home and public APs. Index 0 is unused; channels run 1-13.
type ChannelsResult struct {
	Home   [14]float64
	Public [14]float64
	// Ch1Home is home APs' channel-1 mass (high in 2013, dispersed by
	// 2015, §3.4.5); NonOverlapPub is public mass on channels 1/6/11.
	Ch1Home       float64
	NonOverlapPub float64
}

// Channels computes Fig. 16 from the prepass, weighting each unique
// associated AP once.
func (p *Prep) Channels() ChannelsResult {
	var r ChannelsResult
	var nHome, nPub int
	for _, st := range p.APs {
		if st.AssocSamples == 0 || st.Band != trace.Band24 || st.Channel < 1 || st.Channel > 13 {
			continue
		}
		switch st.Class {
		case APHome:
			r.Home[st.Channel]++
			nHome++
		case APPublic:
			r.Public[st.Channel]++
			nPub++
		}
	}
	if nHome > 0 {
		for i := range r.Home {
			r.Home[i] /= float64(nHome)
		}
		r.Ch1Home = r.Home[1]
	}
	if nPub > 0 {
		for i := range r.Public {
			r.Public[i] /= float64(nPub)
		}
		r.NonOverlapPub = r.Public[1] + r.Public[6] + r.Public[11]
	}
	return r
}

// PublicAvailability reproduces Fig. 17 and the §3.5 offloading estimate:
// for WiFi-available intervals (Android, interface on, not associated), how
// many public networks the device detects per band and strength, and how
// much cellular download falls inside intervals with a strong public AP in
// range.
type PublicAvailability struct {
	prep *Prep

	// hist counts the available intervals by the public APs they saw, one
	// histogram per band and strength (the avail* indexes); intervals is
	// their total. Every Fig. 17 statistic is a CCDF or a threshold count
	// of these small integers, so the counts are all it needs.
	hist      [numAvailHists]countHist
	intervals uint64

	// Per-device offloading accounting: devs indexes dev, and last
	// memoizes devs for the current device run.
	devs map[trace.DeviceID]int
	dev  []availDevice
	last memo[trace.DeviceID, int]
}

// The histograms of PublicAvailability.hist.
const (
	avail24All = iota
	avail24Strong
	avail5All
	avail5Strong
	numAvailHists
)

// availBins is the number of public-AP counts each histogram holds from the
// start, counts 0 to 63. A histogram grows only for a count past that; the
// simulator hears at most 64 public APs in one scan.
const availBins = 64

// availDevice is one Android device's offloading accounting.
type availDevice struct {
	id trace.DeviceID
	// cellTotal is all cellular download; offloadable the part inside
	// intervals with a strong public AP in range.
	cellTotal, offloadable uint64
	// availBins counts WiFi-available intervals; strongBins those with a
	// strong public AP in range.
	availBins, strongBins int
	// any5/strong5 record whether any / a strong 5 GHz public AP was ever
	// detected.
	any5, strong5 bool
}

// NewPublicAvailability returns an empty Fig. 17 accumulator. Its four
// histograms share one backing array of availBins counts each.
func NewPublicAvailability(prep *Prep) *PublicAvailability {
	hint := len(prep.Devices)
	pa := &PublicAvailability{
		prep: prep,
		devs: make(map[trace.DeviceID]int, hint),
		dev:  make([]availDevice, 0, hint),
	}
	bins := make(countHist, numAvailHists*availBins)
	for h := range pa.hist {
		pa.hist[h] = bins[h*availBins : (h+1)*availBins : (h+1)*availBins]
	}
	return pa
}

// Add implements Analyzer.
func (pa *PublicAvailability) Add(s *trace.Sample) {
	if s.OS != trace.Android {
		return
	}
	di, ok := pa.last.get(s.Device)
	if !ok {
		if di, ok = pa.devs[s.Device]; !ok {
			di = len(pa.dev)
			pa.dev = append(pa.dev, availDevice{id: s.Device})
			pa.devs[s.Device] = di
		}
		pa.last.put(s.Device, di)
	}
	dev := &pa.dev[di]
	dev.cellTotal += s.CellRX
	if s.WiFiState != trace.WiFiOn {
		return
	}
	dev.availBins++
	var c24, c24s, c5, c5s int
	for i := range s.APs {
		obs := &s.APs[i]
		if pa.prep.ClassOf(APKey{BSSID: obs.BSSID, ESSID: obs.ESSID}) != APPublic {
			continue
		}
		strong := float64(obs.RSSI) >= wifi.StrongRSSI
		if obs.Band == trace.Band5 {
			c5++
			if strong {
				c5s++
			}
		} else {
			c24++
			if strong {
				c24s++
			}
		}
	}
	pa.intervals++
	pa.hist[avail24All].add(c24)
	pa.hist[avail24Strong].add(c24s)
	pa.hist[avail5All].add(c5)
	pa.hist[avail5Strong].add(c5s)
	dev.any5 = dev.any5 || c5 > 0
	dev.strong5 = dev.strong5 || c5s > 0
	if c24s+c5s > 0 {
		dev.offloadable += s.CellRX
		dev.strongBins++
	}
}

// NewShard implements Analyzer.
func (pa *PublicAvailability) NewShard() Analyzer { return NewPublicAvailability(pa.prep) }

// Merge implements Analyzer. The histograms add count by count, so
// the result matches the sequential pass in any merge order.
func (pa *PublicAvailability) Merge(shard Analyzer) {
	o := shard.(*PublicAvailability)
	for h := range pa.hist {
		pa.hist[h].merge(o.hist[h])
	}
	pa.intervals += o.intervals
	for j := range o.dev {
		od := &o.dev[j]
		i, ok := pa.devs[od.id]
		if !ok {
			pa.devs[od.id] = len(pa.dev)
			pa.dev = append(pa.dev, *od)
			continue
		}
		dev := &pa.dev[i]
		dev.cellTotal += od.cellTotal
		dev.offloadable += od.offloadable
		dev.availBins += od.availBins
		dev.strongBins += od.strongBins
		dev.any5 = dev.any5 || od.any5
		dev.strong5 = dev.strong5 || od.strong5
	}
	pa.last.reset()
}

// countHist counts intervals by a small integer: h[c] is the number of
// intervals whose count was c.
type countHist []uint64

// grow extends h to at least n bins.
func (h *countHist) grow(n int) {
	if n > len(*h) {
		*h = append(*h, make(countHist, n-len(*h))...)
	}
}

// add counts one interval of count c.
func (h *countHist) add(c int) {
	h.grow(c + 1)
	(*h)[c]++
}

// merge adds o into h bin by bin.
func (h *countHist) merge(o countHist) {
	h.grow(len(o))
	for c, v := range o {
		(*h)[c] += v
	}
}

// ccdf is stats.CCDF of the n counts h holds: one point per non-empty bin
// in ascending order, at the share of counts above it. stats.CDF gives each
// run of equal values the cumulative share at the run's last index,
// float64(cum)/float64(n), so the points are bit-identical to it.
func (h countHist) ccdf(n uint64) stats.Distribution {
	k := 0
	for _, v := range h {
		if v > 0 {
			k++
		}
	}
	if k == 0 {
		return stats.Distribution{}
	}
	pts := make([]stats.Point, 0, k)
	var cum uint64
	for c, v := range h {
		if v == 0 {
			continue
		}
		cum += v
		pts = append(pts, stats.Point{X: float64(c), Y: 1 - float64(cum)/float64(n)})
	}
	return stats.Distribution{Points: pts}
}

// below returns how many counts h holds under c.
func (h countHist) below(c int) uint64 {
	var n uint64
	for _, v := range h[:min(c, len(h))] {
		n += v
	}
	return n
}

// PublicAvailabilityResult holds the Fig. 17 CCDFs and §3.5 estimates.
type PublicAvailabilityResult struct {
	CCDF24All    stats.Distribution
	CCDF24Strong stats.Distribution
	CCDF5All     stats.Distribution
	CCDF5Strong  stats.Distribution

	// Frac24Under10 is the share of available intervals seeing fewer than
	// ten 2.4 GHz public APs ("most users (90%) see fewer than 10").
	Frac24Under10 float64
	// Frac5Any / Frac5Strong are the shares of intervals detecting any /
	// a strong 5 GHz public AP.
	Frac5Any    float64
	Frac5Strong float64
	// Dev5AnyFrac / Dev5StrongFrac are the §3.5 per-user figures: the
	// share of WiFi-available devices that ever detect any / a strong
	// 5 GHz public AP (30% / 10% in 2015; 10% / 3% in 2013).
	Dev5AnyFrac    float64
	Dev5StrongFrac float64

	// OffloadableFrac is (cellular download during strong-public
	// intervals) / (total cellular download) over WiFi-available devices
	// (15-20% in §3.5).
	OffloadableFrac float64
	// StrongOpportunityFrac is the share of WiFi-available devices that
	// ever encounter a strong public AP ("60% of WiFi-available users").
	StrongOpportunityFrac float64
}

// minAvailBins qualifies a device as "WiFi-available" for the §3.5
// estimates: it must spend at least this many intervals on-but-unassociated.
const minAvailBins = 36 // >= 6 hours over the campaign

// Result finalizes the accumulator.
func (pa *PublicAvailability) Result() PublicAvailabilityResult {
	n := pa.intervals
	r := PublicAvailabilityResult{
		CCDF24All:    pa.hist[avail24All].ccdf(n),
		CCDF24Strong: pa.hist[avail24Strong].ccdf(n),
		CCDF5All:     pa.hist[avail5All].ccdf(n),
		CCDF5Strong:  pa.hist[avail5Strong].ccdf(n),
	}
	if n > 0 {
		r.Frac24Under10 = float64(pa.hist[avail24All].below(10)) / float64(n)
		r.Frac5Any = float64(n-pa.hist[avail5All].below(1)) / float64(n)
		r.Frac5Strong = float64(n-pa.hist[avail5Strong].below(1)) / float64(n)
	}
	var off, tot uint64
	var devices, withStrong, with5, with5s int
	for i := range pa.dev {
		dev := &pa.dev[i]
		if dev.availBins < minAvailBins {
			continue
		}
		devices++
		off += dev.offloadable
		tot += dev.cellTotal
		if dev.strongBins > 0 {
			withStrong++
		}
		if dev.any5 {
			with5++
		}
		if dev.strong5 {
			with5s++
		}
	}
	if tot > 0 {
		r.OffloadableFrac = float64(off) / float64(tot)
	}
	if devices > 0 {
		r.StrongOpportunityFrac = float64(withStrong) / float64(devices)
		r.Dev5AnyFrac = float64(with5) / float64(devices)
		r.Dev5StrongFrac = float64(with5s) / float64(devices)
	}
	return r
}
