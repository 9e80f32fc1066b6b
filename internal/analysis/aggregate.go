package analysis

import "smartusage/internal/trace"

// Aggregate reproduces Fig. 2: the panel-wide traffic rate by hour of week,
// split by interface and direction. Byte totals per hour-of-week bin are
// normalized by how often each bin occurs in the campaign, yielding a mean
// weekly profile in Mbit/s.
type Aggregate struct {
	meta Meta
	// byte sums per hour-of-week bin
	cellRX, cellTX, wifiRX, wifiTX [168]float64
}

// NewAggregate returns an empty Fig. 2 accumulator.
func NewAggregate(meta Meta) *Aggregate { return &Aggregate{meta: meta} }

// Add implements Analyzer.
func (a *Aggregate) Add(s *trace.Sample) {
	h := a.meta.HourOfWeek(s.Time)
	a.cellRX[h] += float64(s.CellRX)
	a.cellTX[h] += float64(s.CellTX)
	a.wifiRX[h] += float64(s.WiFiRX)
	a.wifiTX[h] += float64(s.WiFiTX)
}

// NewShard implements Analyzer.
func (a *Aggregate) NewShard() Analyzer { return NewAggregate(a.meta) }

// Merge implements Analyzer.
func (a *Aggregate) Merge(shard Analyzer) {
	o := shard.(*Aggregate)
	for h := 0; h < 168; h++ {
		a.cellRX[h] += o.cellRX[h]
		a.cellTX[h] += o.cellTX[h]
		a.wifiRX[h] += o.wifiRX[h]
		a.wifiTX[h] += o.wifiTX[h]
	}
}

// AggregateResult holds the Fig. 2 curves (Mbit/s per hour-of-week bin;
// bin 0 = Sunday 00:00).
type AggregateResult struct {
	CellRXMbps [168]float64
	CellTXMbps [168]float64
	WiFiRXMbps [168]float64
	WiFiTXMbps [168]float64
	// WiFiTrafficShare is WiFi bytes / total bytes over the whole
	// campaign (59% → 67%, §3.1).
	WiFiTrafficShare float64
}

// Result finalizes the accumulator.
func (a *Aggregate) Result() AggregateResult {
	var r AggregateResult
	occ := a.meta.HourOfWeekOccurrences()
	var wifi, total float64
	for h := 0; h < 168; h++ {
		n := float64(occ[h])
		if n == 0 {
			continue
		}
		const toMbps = 8 / 3600.0 / 1e6
		r.CellRXMbps[h] = a.cellRX[h] / n * toMbps
		r.CellTXMbps[h] = a.cellTX[h] / n * toMbps
		r.WiFiRXMbps[h] = a.wifiRX[h] / n * toMbps
		r.WiFiTXMbps[h] = a.wifiTX[h] / n * toMbps
		wifi += a.wifiRX[h] + a.wifiTX[h]
		total += a.cellRX[h] + a.cellTX[h] + a.wifiRX[h] + a.wifiTX[h]
	}
	if total > 0 {
		r.WiFiTrafficShare = wifi / total
	}
	return r
}
