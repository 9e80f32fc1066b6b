package core_test

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/trace"
)

// heapWatch samples HeapAlloc until stopped and reports the peak.
func heapWatch() (stop func() uint64) {
	var peak atomic.Uint64
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
	sample()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		sample()
		return peak.Load()
	}
}

// runHeapPerSample bounds how much a run's peak heap may grow per added
// sample: the prepass's user-days and the exact analyzers' per-day state,
// with the GC's headroom. A campaign held in memory, even trace-encoded,
// costs about 70 B per sample (TestShardsHoldEncodedSamples) and fails it.
const runHeapPerSample = 20

// TestRunHeapPerSample runs RunWithConfig without TraceDir for one panel
// over a short and a 4x longer campaign under a heap watchdog, and bounds
// the peak heap's growth per added sample. The trace is spooled and
// streamed back, so only state that grows with the user-days may grow.
func TestRunHeapPerSample(t *testing.T) {
	if testing.Short() {
		t.Skip("two campaigns skipped in -short mode")
	}
	cfg, err := config.ForYear(2014, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(days int) (samples, growth uint64) {
		c := cfg
		c.Days = days
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		decodes := trace.DecodeCount()
		stop := heapWatch()
		run, err := core.RunWithConfig(c, core.Options{})
		peak := stop()
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(run)
		// Each pass decodes every sample once.
		samples = (trace.DecodeCount() - decodes) / 2
		if peak > base.HeapAlloc {
			growth = peak - base.HeapAlloc
		}
		t.Logf("%d days, %d samples: peak heap +%.1f MiB", days, samples, float64(growth)/(1<<20))
		return samples, growth
	}
	shortN, short := measure(6)
	longN, long := measure(24)
	if longN <= shortN {
		t.Fatalf("the 24-day campaign has %d samples, the 6-day one %d", longN, shortN)
	}
	perSample := (float64(long) - float64(short)) / float64(longN-shortN)
	t.Logf("%.1f B of peak heap per added sample (bound %d)", perSample, runHeapPerSample)
	if perSample > runHeapPerSample {
		t.Errorf("peak heap grows %.1f B per added sample, over the %d B bound", perSample, runHeapPerSample)
	}
}

// TestRunLeavesTempDirAsFound points TMPDIR at a file, where a run without
// TraceDir cannot spool its trace and must fail, and then at an empty
// directory, which a whole study must leave empty: every campaign removes
// its trace before it returns.
func TestRunLeavesTempDirAsFound(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Scale: 0.02, Seed: 3}
	t.Setenv("TMPDIR", notDir)
	if _, err := core.RunCampaign(2013, opts); err == nil {
		t.Fatal("a run with TMPDIR naming a file succeeded, so it did not spool there")
	}

	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)
	if _, err := core.RunStudy(opts); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("the study left %s in TMPDIR", e.Name())
	}
}
