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

	// Per-available-interval public AP counts.
	n24All, n24Strong, n5All, n5Strong []float64

	// Per-device offloading accounting: devs indexes dev, and last
	// memoizes devs for the current device run.
	devs map[trace.DeviceID]int
	dev  []availDevice
	last memo[trace.DeviceID, int]
}

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

// NewPublicAvailability returns an empty Fig. 17 accumulator. Its
// per-interval slices are preallocated from the prepass cardinality (when
// known) and drawn from a shared pool; call Release once the result has been
// extracted to recycle them.
func NewPublicAvailability(prep *Prep) *PublicAvailability {
	pa := newPublicAvailability(prep)
	if n := prep.Card.AvailIntervals; n > 0 {
		pa.n24All = floatPool.Get(n)
		pa.n24Strong = floatPool.Get(n)
		pa.n5All = floatPool.Get(n)
		pa.n5Strong = floatPool.Get(n)
	}
	return pa
}

// newPublicAvailability builds the accumulator without preallocating the
// interval slices: shard accumulators see only a fraction of the stream, so
// they start empty and grow through the pool instead of each claiming a
// full-cardinality slab.
func newPublicAvailability(prep *Prep) *PublicAvailability {
	hint := len(prep.Devices)
	return &PublicAvailability{
		prep: prep,
		devs: make(map[trace.DeviceID]int, hint),
		dev:  make([]availDevice, 0, hint),
	}
}

// appendPooled is append with pool-backed growth: outgrown slabs return to
// floatPool instead of becoming garbage.
func appendPooled(b []float64, v float64) []float64 {
	if len(b) == cap(b) {
		n := 2 * cap(b)
		if n < 1024 {
			n = 1024
		}
		b = floatPool.Grow(b, n)
	}
	return append(b, v)
}

// putFloats recycles one slab and returns nil for the field it replaces.
func putFloats(b []float64) []float64 {
	if cap(b) > 0 {
		floatPool.Put(b)
	}
	return nil
}

// Release returns the accumulator's pooled slabs for reuse. Call it only
// after Result (which copies everything it keeps); the receiver must not be
// used afterwards.
func (pa *PublicAvailability) Release() {
	pa.n24All = putFloats(pa.n24All)
	pa.n24Strong = putFloats(pa.n24Strong)
	pa.n5All = putFloats(pa.n5All)
	pa.n5Strong = putFloats(pa.n5Strong)
	pa.last.reset()
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
	pa.n24All = appendPooled(pa.n24All, float64(c24))
	pa.n24Strong = appendPooled(pa.n24Strong, float64(c24s))
	pa.n5All = appendPooled(pa.n5All, float64(c5))
	pa.n5Strong = appendPooled(pa.n5Strong, float64(c5s))
	dev.any5 = dev.any5 || c5 > 0
	dev.strong5 = dev.strong5 || c5s > 0
	if c24s+c5s > 0 {
		dev.offloadable += s.CellRX
		dev.strongBins++
	}
}

// NewShard implements ShardedAnalyzer. Shard accumulators grow their slices
// through the pool on demand rather than preallocating the full cardinality.
func (pa *PublicAvailability) NewShard() Analyzer { return newPublicAvailability(pa.prep) }

// appendAllPooled concatenates src onto b, growing through the pool.
func appendAllPooled(b, src []float64) []float64 {
	if need := len(b) + len(src); need > cap(b) {
		b = floatPool.Grow(b, need)
	}
	return append(b, src...)
}

// Merge implements ShardedAnalyzer. The per-interval slices concatenate in
// shard order; every consumer of them (CCDFs, threshold counts) is
// order-independent, so the result matches the sequential pass. Merge is
// destructive: the shard's slabs are recycled into the pool, so the shard
// must not be used afterwards.
func (pa *PublicAvailability) Merge(shard Analyzer) {
	o := shard.(*PublicAvailability)
	pa.n24All = appendAllPooled(pa.n24All, o.n24All)
	pa.n24Strong = appendAllPooled(pa.n24Strong, o.n24Strong)
	pa.n5All = appendAllPooled(pa.n5All, o.n5All)
	pa.n5Strong = appendAllPooled(pa.n5Strong, o.n5Strong)
	o.Release()
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
	r := PublicAvailabilityResult{
		CCDF24All:    stats.CCDF(pa.n24All),
		CCDF24Strong: stats.CCDF(pa.n24Strong),
		CCDF5All:     stats.CCDF(pa.n5All),
		CCDF5Strong:  stats.CCDF(pa.n5Strong),
	}
	if n := len(pa.n24All); n > 0 {
		var u10, any5, strong5 int
		for i := range pa.n24All {
			if pa.n24All[i] < 10 {
				u10++
			}
			if pa.n5All[i] > 0 {
				any5++
			}
			if pa.n5Strong[i] > 0 {
				strong5++
			}
		}
		r.Frac24Under10 = float64(u10) / float64(n)
		r.Frac5Any = float64(any5) / float64(n)
		r.Frac5Strong = float64(strong5) / float64(n)
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
