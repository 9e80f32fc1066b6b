package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/trace"
)

// TestSketchSoak is the scale proof behind sketch mode: it streams a
// synthetic campaign of SOAK_DEVICES devices (default 50k; `make soak-1m`
// sets 1,000,000) through the full sketch battery with a MemStats watchdog
// sampling the heap the whole time, and asserts
//
//  1. the peak heap stays under a hard ceiling that grows only with the
//     device count (the O(devices) transient state), never with user-days,
//     and
//  2. at a million devices, a conservative lower bound on what accumulating
//     per user-day would have to allocate — the exact store's raw durations
//     plus one distinct-AP set per WiFi day, as APsPerDay's map-of-sets
//     oracle keeps — computed from the same run's flush counters, exceeds
//     that ceiling: such a battery could not have fit where this one ran.
//
// The generator feeds samples straight into dispatch without materializing
// the stream, so the test's own footprint is the analyzers'. Set
// SOAK_MEMSTATS_OUT to write the measurements as a JSON artifact.

// soakHeapCeiling is the hard budget: a fixed allowance for the test binary,
// the sketches, and map buckets, plus the documented per-device transient
// state (one open association run and one partial AP-set day, across two
// maps). The volume figures are not streamed: they come from the prepass
// UserDays map, which is O(user-days) in both modes and is not built here.
func soakHeapCeiling(devices int) uint64 {
	return 64<<20 + uint64(devices)*800
}

// Conservative per-record costs of the per-user-day accumulators the
// streamed battery avoids; the real maps/slices cost more (load factors,
// growth doubling, set headers).
const (
	exactBytesPerRun     = 8   // one float64 per closed association run
	exactBytesPerWiFiDay = 160 // per-day APKey set: map header + entries
)

func soakDevices(t *testing.T) int {
	if env := os.Getenv("SOAK_DEVICES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad SOAK_DEVICES %q: %v", env, err)
		}
		return n
	}
	if testing.Short() {
		return 20_000
	}
	return 50_000
}

func TestSketchSoak(t *testing.T) {
	devices := soakDevices(t)
	meta := testMeta(7)
	// A prep with no maps: ClassOf and RankOf fall back to APOther and
	// RankOther, and dispatch applies no update-day excision. The sketch
	// battery is the only analyzer state this test grows.
	prep := &Prep{Meta: meta}
	b, cleaned, raw := newSketchEquivalenceBattery(meta, prep)

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Watchdog: track the peak heap concurrently with the run, so transient
	// spikes between explicit measurement points still count.
	var peak atomic.Uint64
	peak.Store(base.HeapAlloc)
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()

	start := time.Now()
	samples := soakStream(meta, devices, func(s *trace.Sample) {
		dispatch(s, prep, cleaned, raw)
	})
	close(stop)
	wg.Wait()
	sample()
	elapsed := time.Since(start)

	// Finalize under the same budget: Result flushes the per-device state.
	durRes := b.durations.Result()
	apdRes := b.apsPerDay.Result()
	cardRes := b.card.Result()
	sample()

	var runs uint64
	for c := range durRes.Hours {
		runs += uint64(durRes.Hours[c].Count())
	}
	wifiDays := b.apsPerDay.totals[0] // flushed WiFi-using user-days
	ceiling := soakHeapCeiling(devices)
	peakHeap := peak.Load()
	exactLB := runs*exactBytesPerRun + wifiDays*exactBytesPerWiFiDay

	t.Logf("devices=%d samples=%d elapsed=%s", devices, samples, elapsed.Round(time.Millisecond))
	t.Logf("peak heap %.1f MiB, ceiling %.1f MiB", float64(peakHeap)/(1<<20), float64(ceiling)/(1<<20))
	t.Logf("runs=%d wifi-days=%d -> exact-path lower bound %.1f MiB",
		runs, wifiDays, float64(exactLB)/(1<<20))

	if peakHeap > ceiling {
		t.Errorf("peak heap %d exceeds ceiling %d (%.0f B/device over %d devices)",
			peakHeap, ceiling, float64(peakHeap-64<<20)/float64(devices), devices)
	}
	if devices >= 1_000_000 && exactLB <= ceiling {
		t.Errorf("exact-path lower bound %d does not exceed the sketch ceiling %d; the soak proves nothing at this scale", exactLB, ceiling)
	}

	// Sanity: the battery saw the whole stream and produced plausible
	// results — a soak that silently analyzed nothing would pass any ceiling.
	if cardRes.Samples != samples {
		t.Errorf("cardinality saw %d samples, generator emitted %d", cardRes.Samples, samples)
	}
	if !withinTol(float64(cardRes.Devices), float64(devices), hllRel, 2) {
		t.Errorf("device estimate %d for %d devices", cardRes.Devices, devices)
	}
	if durRes.P90Hours[APOther] <= 0 || apdRes.MultiAPShare <= 0 {
		t.Errorf("degenerate duration/apsPerDay results: p90 %g, multi %g",
			durRes.P90Hours[APOther], apdRes.MultiAPShare)
	}

	if out := os.Getenv("SOAK_MEMSTATS_OUT"); out != "" {
		artifact := map[string]any{
			"devices":            devices,
			"samples":            samples,
			"elapsed_sec":        elapsed.Seconds(),
			"peak_heap_bytes":    peakHeap,
			"ceiling_bytes":      ceiling,
			"exact_lower_bound":  exactLB,
			"assoc_runs":         runs,
			"wifi_days":          wifiDays,
			"device_estimate":    cardRes.Devices,
			"ap_estimate":        cardRes.APs,
			"bytes_per_device":   float64(peakHeap) / float64(devices),
			"exact_over_ceiling": float64(exactLB) / float64(ceiling),
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
		t.Logf("memstats artifact written to %s", out)
	}
}

// soakStream synthesizes the soak campaign device-major and time-ordered per
// device, calling fn for every sample without buffering the stream. Per
// device-day it emits five 10-minute reports: a cellular interval with WiFi
// scanning on, a public-WiFi association, and a three-interval home
// association run — enough to exercise every sketch analyzer's flush path.
// All strings are shared constants, so the generator itself allocates
// nothing per sample.
func soakStream(meta Meta, devices int, fn func(*trace.Sample)) int {
	const (
		homeESSID   = "aterm-soak"
		publicESSID = "0000docomo"
	)
	start := meta.Start.Unix()
	var s trace.Sample
	aps := make([]trace.APObs, 1)
	count := 0
	emit := func(dev trace.DeviceID, osv trace.OS, tm int64) {
		s.Device, s.OS, s.Time = dev, osv, tm
		fn(&s)
		count++
	}
	for d := 0; d < devices; d++ {
		dev := trace.DeviceID(1 + d)
		osv := trace.Android
		if d%3 == 0 {
			osv = trace.IOS
		}
		for day := 0; day < meta.Days; day++ {
			t0 := start + int64(day)*86400

			// 12:00 — cellular interval, WiFi radio on (counts toward
			// AvailIntervals on Android), no AP observations.
			s = trace.Sample{
				WiFiState: trace.WiFiOn,
				RAT:       trace.RATLTE,
				CellRX:    uint64(100_000 + (d%211)*7_000),
				CellTX:    uint64(10_000 + (d%97)*500),
			}
			emit(dev, osv, t0+12*3600)

			// 15:00 — public hotspot association (distinct AP per d%8).
			aps[0] = trace.APObs{
				BSSID: trace.BSSID(0x5000 + d%8), ESSID: publicESSID,
				RSSI: -58, Channel: 6, Band: trace.Band24, Associated: true,
			}
			s = trace.Sample{
				WiFiState: trace.WiFiAssociated,
				WiFiRX:    uint64(500_000 + (d%173)*11_000),
				WiFiTX:    uint64(50_000 + (d%89)*900),
				APs:       aps,
			}
			emit(dev, osv, t0+15*3600)

			// 22:00-22:20 — a home association run (unique AP per device by
			// BSSID; the shared ESSID keeps the generator allocation-free).
			aps[0] = trace.APObs{
				BSSID: trace.BSSID(0x100000 + d), ESSID: homeESSID,
				RSSI: -48, Channel: 1, Band: trace.Band24, Associated: true,
			}
			for i := 0; i < 3; i++ {
				s = trace.Sample{
					WiFiState: trace.WiFiAssociated,
					WiFiRX:    uint64(200_000 + (day*3+i)*13_000),
					APs:       aps,
				}
				emit(dev, osv, t0+22*3600+int64(i)*600)
			}
		}
	}
	return count
}

// BenchmarkSketchDispatch measures the per-sample cost of the full sketch
// battery — the number the soak's wall-clock scales with.
func BenchmarkSketchDispatch(b *testing.B) {
	meta := testMeta(7)
	prep := &Prep{Meta: meta}
	_, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
	devices := 1000
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		done += soakStream(meta, devices, func(s *trace.Sample) {
			dispatch(s, prep, cleaned, raw)
		})
	}
	_ = fmt.Sprint()
}
