package analysis

import (
	"reflect"
	"sort"
	"testing"

	"smartusage/internal/trace"
)

// timeMajor reorders a device-major stream by time: devices interleave
// sample by sample while each device stays in time order, so every memo
// keyed by device or device-day misses on nearly every sample.
func timeMajor(samples []trace.Sample) []trace.Sample {
	out := append([]trace.Sample(nil), samples...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// TestMemosIgnoreDeviceOrder pins the memo contract: a memo only caches, so
// interleaving devices changes no result. The prepass and both batteries,
// exact and sketch (down to the HLL registers), must DeepEqual the
// device-major run at every worker count.
func TestMemosIgnoreDeviceOrder(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	interleaved := timeMajor(samples)
	switches := 0
	for i := 1; i < len(interleaved); i++ {
		if interleaved[i].Device != interleaved[i-1].Device {
			switches++
		}
	}
	if switches < len(interleaved)/2 {
		t.Fatalf("time-major fixture switches device on %d of %d samples", switches, len(interleaved))
	}
	src, isrc := SliceSource(samples), SliceSource(interleaved)

	want, err := BuildPrep(meta, Stream(src, 1), release)
	if err != nil {
		t.Fatal(err)
	}
	wantExact := batteryResults(t, meta, want, release, func(cleaned, raw []Analyzer) error {
		return Run(Stream(src, 1), want, cleaned, raw)
	})
	sketchResults := func(prep *Prep, src Source, workers int) map[string]any {
		b, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
		if err := Run(Stream(src, workers), prep, cleaned, raw); err != nil {
			t.Fatal(err)
		}
		return map[string]any{
			"durations":    b.durations.Result(),
			"apsPerDay":    b.apsPerDay.Result(),
			"card":         b.card.Result(),
			"devices HLL":  b.card.devices,
			"AP-pairs HLL": b.card.aps,
		}
	}
	wantSketch := sketchResults(want, src, 1)

	for _, workers := range workerCounts() {
		got, err := BuildPrep(meta, Stream(isrc, workers), release)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: interleaved prepass differs from the device-major one", workers)
		}
		gotExact := batteryResults(t, meta, got, release, func(cleaned, raw []Analyzer) error {
			return Run(Stream(isrc, workers), got, cleaned, raw)
		})
		for name, w := range wantExact {
			if !reflect.DeepEqual(w, gotExact[name]) {
				t.Errorf("workers=%d: interleaved %s differs from the device-major run", workers, name)
			}
		}
		for name, w := range sketchResults(got, isrc, workers) {
			if !reflect.DeepEqual(wantSketch[name], w) {
				t.Errorf("workers=%d: interleaved sketch %s differs from the device-major run", workers, name)
			}
		}
	}
}
