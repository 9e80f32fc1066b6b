package analysis

import (
	"smartusage/internal/sketch"
	"smartusage/internal/trace"
)

// SketchCardinality is the sketch-mode counterpart of the prepass
// Cardinality: the exact stream counters plus HLL estimates of the two
// populations the prepass materializes as maps — distinct devices and
// distinct (BSSID, ESSID) pairs. It runs as a raw analyzer (the prepass
// counts tethered samples too) and is the piece that lets a map-free
// pipeline (the 1M-device soak) still report panel and AP-census sizes.
type SketchCardinality struct {
	// Samples and AvailIntervals mirror Cardinality exactly.
	Samples        int
	AvailIntervals int

	devices *sketch.Distinct
	aps     *sketch.Distinct
}

// NewSketchCardinality returns an empty sketch-mode cardinality analyzer.
func NewSketchCardinality() *SketchCardinality {
	return &SketchCardinality{devices: sketch.NewDistinct(), aps: sketch.NewDistinct()}
}

// Add implements Analyzer.
func (c *SketchCardinality) Add(s *trace.Sample) {
	c.Samples++
	if !s.Tethered && s.OS == trace.Android && s.WiFiState == trace.WiFiOn {
		c.AvailIntervals++
	}
	c.devices.AddUint64(uint64(s.Device))
	for i := range s.APs {
		obs := &s.APs[i]
		c.aps.AddKey(uint64(obs.BSSID), obs.ESSID)
	}
}

// NewShard implements ShardedAnalyzer.
func (c *SketchCardinality) NewShard() Analyzer { return NewSketchCardinality() }

// Merge implements ShardedAnalyzer. HLL merges are idempotent, so the AP
// union absorbs pairs observed from devices in different shards.
func (c *SketchCardinality) Merge(shard Analyzer) {
	o := shard.(*SketchCardinality)
	c.Samples += o.Samples
	c.AvailIntervals += o.AvailIntervals
	c.devices.Merge(o.devices)
	c.aps.Merge(o.aps)
}

// SketchCardinalityResult reports the exact stream counters and the
// estimated population sizes (within the HLL's ~1.6% standard error).
type SketchCardinalityResult struct {
	Samples        int
	AvailIntervals int
	Devices        uint64
	APs            uint64
}

// Result finalizes the estimates.
func (c *SketchCardinality) Result() SketchCardinalityResult {
	return SketchCardinalityResult{
		Samples:        c.Samples,
		AvailIntervals: c.AvailIntervals,
		Devices:        c.devices.Count(),
		APs:            c.aps.Count(),
	}
}
