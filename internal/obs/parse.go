package obs

// Snapshot parsing: the inverse of MarshalJSON, for consumers that scrape a
// /metrics?format=json endpoint programmatically — cmd/loadgen reads the
// collector's ingest counters this way. Parsing is tolerant of unknown
// fields so snapshots from newer binaries still load.

import (
	"encoding/json"
	"fmt"
)

// ParseJSON decodes a snapshot previously rendered by MarshalJSON (the
// /metrics?format=json body). Help text is not part of the JSON exposition
// and comes back empty.
func ParseJSON(data []byte) (*Snapshot, error) {
	var raw struct {
		Counters []struct {
			Name   string `json:"name"`
			Labels string `json:"labels"`
			Value  int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name   string `json:"name"`
			Labels string `json:"labels"`
			Value  int64  `json:"value"`
		} `json:"gauges"`
		Histograms []struct {
			Name   string    `json:"name"`
			Labels string    `json:"labels"`
			Bounds []float64 `json:"bounds"`
			Counts []int64   `json:"counts"`
			Sum    float64   `json:"sum"`
			Count  int64     `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("obs: parse snapshot: %w", err)
	}
	snap := &Snapshot{help: map[string]string{}}
	for _, c := range raw.Counters {
		snap.Counters = append(snap.Counters, CounterValue(c))
	}
	for _, g := range raw.Gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue(g))
	}
	for _, h := range raw.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("obs: parse snapshot: histogram %s has %d counts for %d bounds",
				h.Name, len(h.Counts), len(h.Bounds))
		}
		snap.Histograms = append(snap.Histograms, HistogramValue(h))
	}
	return snap, nil
}

// CounterTotal sums every counter series with the given name across label
// sets. A name with no series sums to zero.
func (s *Snapshot) CounterTotal(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}
