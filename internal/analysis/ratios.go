package analysis

import (
	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// WiFiRatios reproduces Figs. 6-8: the WiFi-traffic ratio (WiFi download
// bytes over total download bytes per time bin) and the WiFi-user ratio
// (fraction of reporting devices associated with WiFi per time bin), for
// the whole panel and split into light users and heavy hitters.
type WiFiRatios struct {
	meta Meta
	prep *Prep
	rank memo[UserDayKey, Rank]

	// Indexed by rank bucket: 0 = all, 1 = light, 2 = heavy.
	wifiRX  [3][168]float64
	totalRX [3][168]float64
	assoc   [3][168]float64
	devices [3][168]float64
}

// NewWiFiRatios returns an empty Figs. 6-8 accumulator.
func NewWiFiRatios(meta Meta, prep *Prep) *WiFiRatios {
	return &WiFiRatios{meta: meta, prep: prep}
}

// Add implements Analyzer.
func (w *WiFiRatios) Add(s *trace.Sample) {
	h := w.meta.HourOfWeek(s.Time)
	buckets := [3]bool{true, false, false}
	switch w.prep.rankMemo(&w.rank, UserDayKey{Device: s.Device, Day: w.meta.Day(s.Time)}) {
	case RankLight:
		buckets[1] = true
	case RankHeavy:
		buckets[2] = true
	}
	for b, on := range buckets {
		if !on {
			continue
		}
		w.wifiRX[b][h] += float64(s.WiFiRX)
		w.totalRX[b][h] += float64(s.WiFiRX + s.CellRX)
		w.devices[b][h]++
		if s.WiFiState == trace.WiFiAssociated {
			w.assoc[b][h]++
		}
	}
}

// NewShard implements Analyzer.
func (w *WiFiRatios) NewShard() Analyzer { return NewWiFiRatios(w.meta, w.prep) }

// Merge implements Analyzer.
func (w *WiFiRatios) Merge(shard Analyzer) {
	o := shard.(*WiFiRatios)
	for b := 0; b < 3; b++ {
		for h := 0; h < 168; h++ {
			w.wifiRX[b][h] += o.wifiRX[b][h]
			w.totalRX[b][h] += o.totalRX[b][h]
			w.assoc[b][h] += o.assoc[b][h]
			w.devices[b][h] += o.devices[b][h]
		}
	}
}

// RatioCurves holds one population slice's Fig. 6-8 curves.
type RatioCurves struct {
	// TrafficRatio[h] = WiFi RX / total RX in hour-of-week bin h.
	TrafficRatio [168]float64
	// UserRatio[h] = associated device-intervals / reporting
	// device-intervals in bin h.
	UserRatio [168]float64
	// Means over non-empty bins.
	MeanTrafficRatio float64
	MeanUserRatio    float64
}

// WiFiRatiosResult bundles the panel-wide, light-user, and heavy-hitter
// curves.
type WiFiRatiosResult struct {
	All   RatioCurves
	Light RatioCurves
	Heavy RatioCurves
}

// Result finalizes the accumulator.
func (w *WiFiRatios) Result() WiFiRatiosResult {
	build := func(b int) RatioCurves {
		var c RatioCurves
		var trSum, urSum float64
		var trN, urN int
		for h := 0; h < 168; h++ {
			if w.totalRX[b][h] > 0 {
				c.TrafficRatio[h] = w.wifiRX[b][h] / w.totalRX[b][h]
				trSum += c.TrafficRatio[h]
				trN++
			}
			if w.devices[b][h] > 0 {
				c.UserRatio[h] = w.assoc[b][h] / w.devices[b][h]
				urSum += c.UserRatio[h]
				urN++
			}
		}
		if trN > 0 {
			c.MeanTrafficRatio = trSum / float64(trN)
		}
		if urN > 0 {
			c.MeanUserRatio = urSum / float64(urN)
		}
		return c
	}
	return WiFiRatiosResult{All: build(0), Light: build(1), Heavy: build(2)}
}

// InterfaceState reproduces Fig. 9: the per-time-bin shares of Android
// devices that are WiFi-users (associated), WiFi-off (interface explicitly
// off), or WiFi-available (on but unassociated), plus the iOS WiFi-user
// share (iOS reports no interface detail beyond association, §3.3.4).
type InterfaceState struct {
	meta Meta

	andAssoc, andOff, andOn, andTotal [168]float64
	iosAssoc, iosTotal                [168]float64
}

// NewInterfaceState returns an empty Fig. 9 accumulator.
func NewInterfaceState(meta Meta) *InterfaceState {
	return &InterfaceState{meta: meta}
}

// Add implements Analyzer.
func (is *InterfaceState) Add(s *trace.Sample) {
	h := is.meta.HourOfWeek(s.Time)
	if s.OS == trace.Android {
		is.andTotal[h]++
		switch s.WiFiState {
		case trace.WiFiAssociated:
			is.andAssoc[h]++
		case trace.WiFiOff:
			is.andOff[h]++
		case trace.WiFiOn:
			is.andOn[h]++
		}
		return
	}
	is.iosTotal[h]++
	if s.WiFiState == trace.WiFiAssociated {
		is.iosAssoc[h]++
	}
}

// NewShard implements Analyzer.
func (is *InterfaceState) NewShard() Analyzer { return NewInterfaceState(is.meta) }

// Merge implements Analyzer.
func (is *InterfaceState) Merge(shard Analyzer) {
	o := shard.(*InterfaceState)
	for h := 0; h < 168; h++ {
		is.andAssoc[h] += o.andAssoc[h]
		is.andOff[h] += o.andOff[h]
		is.andOn[h] += o.andOn[h]
		is.andTotal[h] += o.andTotal[h]
		is.iosAssoc[h] += o.iosAssoc[h]
		is.iosTotal[h] += o.iosTotal[h]
	}
}

// InterfaceStateResult holds the Fig. 9 curves.
type InterfaceStateResult struct {
	AndroidUser      [168]float64
	AndroidOff       [168]float64
	AndroidAvailable [168]float64
	IOSUser          [168]float64

	// Daytime means (10:00-18:00, the paper's business-hours framing).
	MeanAndroidOffDaytime       float64
	MeanAndroidAvailableDaytime float64
	MeanAndroidUser             float64
	MeanIOSUser                 float64
}

// Result finalizes the accumulator.
func (is *InterfaceState) Result() InterfaceStateResult {
	var r InterfaceStateResult
	var offDay, availDay []float64
	var andUser, iosUser []float64
	for h := 0; h < 168; h++ {
		if is.andTotal[h] > 0 {
			r.AndroidUser[h] = is.andAssoc[h] / is.andTotal[h]
			r.AndroidOff[h] = is.andOff[h] / is.andTotal[h]
			r.AndroidAvailable[h] = is.andOn[h] / is.andTotal[h]
			andUser = append(andUser, r.AndroidUser[h])
			if hr := h % 24; hr >= 10 && hr < 18 {
				offDay = append(offDay, r.AndroidOff[h])
				availDay = append(availDay, r.AndroidAvailable[h])
			}
		}
		if is.iosTotal[h] > 0 {
			r.IOSUser[h] = is.iosAssoc[h] / is.iosTotal[h]
			iosUser = append(iosUser, r.IOSUser[h])
		}
	}
	r.MeanAndroidOffDaytime = stats.Mean(offDay)
	r.MeanAndroidAvailableDaytime = stats.Mean(availDay)
	r.MeanAndroidUser = stats.Mean(andUser)
	r.MeanIOSUser = stats.Mean(iosUser)
	return r
}
