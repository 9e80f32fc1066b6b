package analysis

import "smartusage/internal/trace"

// Battery summarizes the battery telemetry the measurement software
// records (§2). The paper uses it only indirectly — the survey finds
// battery-drain concern about WiFi declining (Table 9) — so this analyzer
// provides the data behind that discussion: the diurnal battery profile
// and whether WiFi-associated intervals drain differently from
// cellular-only ones.
type Battery struct {
	meta Meta

	sumByHour   [24]float64
	countByHour [24]int

	assocSum, assocN  float64
	cellSum, cellN    float64
	lowBattery, total int
}

// NewBattery returns an empty battery accumulator.
func NewBattery(meta Meta) *Battery { return &Battery{meta: meta} }

// Add implements Analyzer.
func (ba *Battery) Add(s *trace.Sample) {
	h := ba.meta.Hour(s.Time)
	lvl := float64(s.Battery)
	ba.sumByHour[h] += lvl
	ba.countByHour[h]++
	ba.total++
	if s.Battery < 20 {
		ba.lowBattery++
	}
	if s.WiFiState == trace.WiFiAssociated {
		ba.assocSum += lvl
		ba.assocN++
	} else if s.CellRX+s.CellTX > 0 {
		ba.cellSum += lvl
		ba.cellN++
	}
}

// NewShard implements Analyzer.
func (ba *Battery) NewShard() Analyzer { return NewBattery(ba.meta) }

// Merge implements Analyzer.
func (ba *Battery) Merge(shard Analyzer) {
	o := shard.(*Battery)
	for h := 0; h < 24; h++ {
		ba.sumByHour[h] += o.sumByHour[h]
		ba.countByHour[h] += o.countByHour[h]
	}
	ba.assocSum += o.assocSum
	ba.assocN += o.assocN
	ba.cellSum += o.cellSum
	ba.cellN += o.cellN
	ba.lowBattery += o.lowBattery
	ba.total += o.total
}

// BatteryResult holds the battery telemetry summary.
type BatteryResult struct {
	// MeanByHour is the mean battery level per local hour (overnight
	// charging pushes the early-morning hours toward 100).
	MeanByHour [24]float64
	// MeanAssociated / MeanCellular compare battery levels while on WiFi
	// versus while active on cellular.
	MeanAssociated float64
	MeanCellular   float64
	// LowBatteryFrac is the share of intervals below 20%.
	LowBatteryFrac float64
}

// Result finalizes the accumulator.
func (ba *Battery) Result() BatteryResult {
	var r BatteryResult
	for h := 0; h < 24; h++ {
		if ba.countByHour[h] > 0 {
			r.MeanByHour[h] = ba.sumByHour[h] / float64(ba.countByHour[h])
		}
	}
	if ba.assocN > 0 {
		r.MeanAssociated = ba.assocSum / ba.assocN
	}
	if ba.cellN > 0 {
		r.MeanCellular = ba.cellSum / ba.cellN
	}
	if ba.total > 0 {
		r.LowBatteryFrac = float64(ba.lowBattery) / float64(ba.total)
	}
	return r
}
