package analysis

import "smartusage/internal/trace"

// LocationTraffic reproduces Fig. 11: WiFi traffic rate by hour of week,
// split by the location class of the associated AP (home, public, office,
// other).
type LocationTraffic struct {
	meta  Meta
	prep  *Prep
	class memo[APKey, APClass]
	rx    [NumAPClasses][168]float64
	tx    [NumAPClasses][168]float64
	tot   [NumAPClasses]float64
}

// NewLocationTraffic returns an empty Fig. 11 accumulator.
func NewLocationTraffic(meta Meta, prep *Prep) *LocationTraffic {
	return &LocationTraffic{meta: meta, prep: prep}
}

// Add implements Analyzer.
func (l *LocationTraffic) Add(s *trace.Sample) {
	if s.WiFiRX == 0 && s.WiFiTX == 0 {
		return
	}
	ap := s.AssociatedAP()
	if ap == nil {
		return
	}
	class := l.prep.classMemo(&l.class, APKey{BSSID: ap.BSSID, ESSID: ap.ESSID})
	h := l.meta.HourOfWeek(s.Time)
	l.rx[class][h] += float64(s.WiFiRX)
	l.tx[class][h] += float64(s.WiFiTX)
	l.tot[class] += float64(s.WiFiRX + s.WiFiTX)
}

// NewShard implements Analyzer.
func (l *LocationTraffic) NewShard() Analyzer { return NewLocationTraffic(l.meta, l.prep) }

// Merge implements Analyzer.
func (l *LocationTraffic) Merge(shard Analyzer) {
	o := shard.(*LocationTraffic)
	for c := APClass(0); c < NumAPClasses; c++ {
		for h := 0; h < 168; h++ {
			l.rx[c][h] += o.rx[c][h]
			l.tx[c][h] += o.tx[c][h]
		}
		l.tot[c] += o.tot[c]
	}
}

// LocationTrafficResult holds the Fig. 11 curves and volume shares.
type LocationTrafficResult struct {
	// RXMbps/TXMbps index by [APClass][hourOfWeek].
	RXMbps [NumAPClasses][168]float64
	TXMbps [NumAPClasses][168]float64
	// Share is each class's fraction of total WiFi volume ("the major
	// contribution of WiFi traffic volume is home networks (95%)",
	// §3.4.1).
	Share [NumAPClasses]float64
}

// Result finalizes the accumulator.
func (l *LocationTraffic) Result() LocationTrafficResult {
	var r LocationTrafficResult
	occ := l.meta.HourOfWeekOccurrences()
	var total float64
	for c := APClass(0); c < NumAPClasses; c++ {
		total += l.tot[c]
		for h := 0; h < 168; h++ {
			if occ[h] == 0 {
				continue
			}
			const toMbps = 8 / 3600.0 / 1e6
			r.RXMbps[c][h] = l.rx[c][h] / float64(occ[h]) * toMbps
			r.TXMbps[c][h] = l.tx[c][h] / float64(occ[h]) * toMbps
		}
	}
	if total > 0 {
		for c := APClass(0); c < NumAPClasses; c++ {
			r.Share[c] = l.tot[c] / total
		}
	}
	return r
}
