package analysis

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/config"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

// These tests pin the streaming pass driver (fanOut under BuildPrep and Run):
// its error paths and its bounded memory. Its results are checked against the
// inline oracles by the equivalence tests in parallel_test.go.

// waitGoroutines polls until the goroutine count is back to want: a worker
// that has signalled its WaitGroup may still be unwinding for a moment.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pass, %d before: the driver leaked workers", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingSource wraps src, counting the samples it has emitted so a test
// can tell how far the decoder got.
func countingSource(src Source, emitted *atomic.Int64) Source {
	return func(fn func(*trace.Sample) error) error {
		return src(func(s *trace.Sample) error {
			emitted.Add(1)
			return fn(s)
		})
	}
}

// TestDriverSourceErrorMidStream checks that a source failing halfway
// through a pass surfaces from both passes of the one-worker driver, with
// every worker goroutine gone.
func TestDriverSourceErrorMidStream(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	boom := errors.New("trace: read sample body: unexpected EOF")
	half := len(samples) / 2
	src := Source(func(fn func(*trace.Sample) error) error {
		for i := range samples {
			if i == half {
				return boom
			}
			if err := fn(&samples[i]); err != nil {
				return err
			}
		}
		return nil
	})
	prep, err := inlinePrep(meta, SliceSource(samples), release)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := BuildPrep(meta, Stream(src, 1), release); !errors.Is(err, boom) {
		t.Errorf("BuildPrep returned %v, want the source error", err)
	}
	waitGoroutines(t, before)
	if err := Run(Stream(src, 1), prep, []Analyzer{NewAggregate(meta)}, nil); !errors.Is(err, boom) {
		t.Errorf("Run returned %v, want the source error", err)
	}
	waitGoroutines(t, before)
}

// TestDriverPrepErrorStopsDecoder checks that a prepass error — a sample
// outside the campaign window — comes back from the one-worker driver and
// stops the decoder early: it may run ahead of the failing sample by at most
// the batches one worker can have in flight.
func TestDriverPrepErrorStopsDecoder(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	bad := append([]trace.Sample(nil), samples...)
	const at = 1000
	bad[at].Time = meta.Start.Unix() - 2*86400
	limit := int64(at + 1 + (fanOutBacklog+2)*fanOutBatch)
	if limit >= int64(len(bad)) {
		t.Fatalf("fixture too short to observe an early stop: %d samples, limit %d", len(bad), limit)
	}
	var emitted atomic.Int64
	before := runtime.NumGoroutine()
	_, err := BuildPrep(meta, Stream(countingSource(SliceSource(bad), &emitted), 1), release)
	if err == nil || !strings.Contains(err.Error(), "outside campaign window") {
		t.Fatalf("BuildPrep returned %v, want the out-of-window error", err)
	}
	if n := emitted.Load(); n > limit {
		t.Errorf("decoder emitted %d samples after an error at sample %d, want <= %d", n, at, limit)
	}
	waitGoroutines(t, before)
}

// consumed counts the samples a pass has analyzed; the count is read from
// the decoding goroutine while the worker adds to it. A pause every 256
// samples makes it slower than the decoder, so a driver without a bound on
// its queues would pile the trace up in memory.
type consumed struct {
	n     atomic.Int64
	pause time.Duration
}

func (c *consumed) Add(*trace.Sample) {
	if c.n.Add(1)%256 == 0 {
		time.Sleep(c.pause)
	}
}

func (c *consumed) NewShard() Analyzer   { return &consumed{pause: c.pause} }
func (c *consumed) Merge(shard Analyzer) { c.n.Add(shard.(*consumed).n.Load()) }

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

// streamHeapSlack is how far the long trace's peak heap may sit above the
// short trace's: GC pacing noise, far below what holding the extra samples
// would cost.
const streamHeapSlack = 4 << 20

// TestStreamingDriverBoundedMemory runs the one-worker driver
// over FileSource at two trace lengths, 8x apart, under a MemStats watchdog.
// At every sample it measures how many samples the decoder has handed over
// that the worker has not yet analyzed, which must never exceed the
// (fanOutBacklog+2) batches one worker owns; and the peak heap above the
// pre-pass baseline must not grow with the trace length.
func TestStreamingDriverBoundedMemory(t *testing.T) {
	meta := testMeta(7)
	dir := t.TempDir()
	maxInFlight := int64((fanOutBacklog + 2) * fanOutBatch)

	measure := func(devices int) (samples int, growth uint64) {
		path := filepath.Join(dir, fmt.Sprintf("stream-%d.trace", devices))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := trace.NewWriter(f)
		var werr error
		samples = soakStream(meta, devices, func(s *trace.Sample) {
			if werr == nil {
				werr = w.Write(s)
			}
		})
		if werr == nil {
			werr = w.Flush()
		}
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			t.Fatal(werr)
		}

		c := consumed{pause: 20 * time.Microsecond}
		var decoded, inFlight int64
		src := FileSource(path)
		watched := Source(func(fn func(*trace.Sample) error) error {
			return src(func(s *trace.Sample) error {
				inFlight = max(inFlight, decoded-c.n.Load())
				decoded++
				return fn(s)
			})
		})
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		stop := heapWatch()
		err = Run(Stream(watched, 1), nil, []Analyzer{&c}, nil)
		peak := stop()
		if err != nil {
			t.Fatal(err)
		}
		if got := c.n.Load(); got != int64(samples) {
			t.Fatalf("%d devices: analyzed %d of %d samples", devices, got, samples)
		}
		if inFlight > maxInFlight {
			t.Errorf("%d devices: %d samples in flight, want <= (fanOutBacklog+2)*fanOutBatch = %d",
				devices, inFlight, maxInFlight)
		}
		if peak > base.HeapAlloc {
			growth = peak - base.HeapAlloc
		}
		t.Logf("%d devices, %d samples: peak %d samples in flight, heap +%.1f MiB",
			devices, samples, inFlight, float64(growth)/(1<<20))
		return samples, growth
	}

	_, short := measure(1000)
	samples, long := measure(8000)
	if long > short+streamHeapSlack {
		t.Errorf("peak heap grew with trace length: +%.1f MiB over %d samples vs +%.1f MiB over 1/8 of them",
			float64(long)/(1<<20), samples, float64(short)/(1<<20))
	}
	// The check must be able to fail: holding the long trace's samples
	// would cost more than the slack allows.
	if held := uint64(samples) * uint64(sampleSize); held <= short+streamHeapSlack {
		t.Fatalf("long trace (%d bytes of samples) too short to tell streaming from buffering", held)
	}
}

// TestShardsReleaseReturnsHeap fills an in-memory campaign partition far
// larger than streamHeapSlack and releases it, keeping the Shards. After a
// GC the heap must be back within streamHeapSlack of its baseline: a
// finished campaign pins none of its chunks, not even through the Shards
// its caller keeps. The parts hold their samples encoded, about 55 B each
// here, so the fill is large enough for the partition to exceed four times
// the slack.
func TestShardsReleaseReturnsHeap(t *testing.T) {
	runtime.GC()
	var base, filled, after runtime.MemStats
	runtime.ReadMemStats(&base)

	sh := NewShards(2)
	s := trace.Sample{
		OS:   trace.Android,
		Apps: make([]trace.AppTraffic, 2),
		APs:  make([]trace.APObs, 4),
	}
	for i := 0; i < 500_000; i++ {
		s.Device, s.Time = trace.DeviceID(i%1000), int64(i/1000)*600
		if err := sh.Add(&s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&filled)
	sh.Release()
	runtime.GC()
	runtime.ReadMemStats(&after)

	if held := filled.HeapAlloc - base.HeapAlloc; held <= 4*streamHeapSlack {
		t.Fatalf("partition holds %.1f MiB, too little to tell a released partition from a kept one",
			float64(held)/(1<<20))
	}
	var growth uint64
	if after.HeapAlloc > base.HeapAlloc {
		growth = after.HeapAlloc - base.HeapAlloc
	}
	t.Logf("partition +%.1f MiB; after Release and GC +%.1f MiB",
		float64(filled.HeapAlloc-base.HeapAlloc)/(1<<20), float64(growth)/(1<<20))
	if growth > streamHeapSlack {
		t.Errorf("heap stayed %.1f MiB above its baseline after Release, over the %.1f MiB slack",
			float64(growth)/(1<<20), float64(streamHeapSlack)/(1<<20))
	}
	if n := sh.Len(); n != 0 {
		t.Errorf("released partition still holds %d samples", n)
	}
}

// TestShardsHoldEncodedSamples fills a two-way partition from a simulated
// campaign and requires it to cost about the campaign's trace size: after a
// GC the heap may grow by at most 1.25 times the samples' AppendSample
// bytes, plus per part one partly filled chunk and its Writer's buffers.
// The bound tells encoded parts from deep-copied samples, which take about
// four times the encoded bytes (247 B per sample here against 63).
func TestShardsHoldEncodedSamples(t *testing.T) {
	cfg, err := config.ForYear(2013, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples []trace.Sample
	var rec []byte
	encoded := 0
	if err := sm.Run(func(s *trace.Sample) error {
		samples = append(samples, *s.Clone())
		rec = trace.AppendSample(rec[:0], s)
		encoded += len(rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var base, filled runtime.MemStats
	runtime.ReadMemStats(&base)
	sh := NewShards(2)
	for i := range samples {
		if err := sh.Add(&samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&filled)
	if n := sh.Len(); n != len(samples) {
		t.Fatalf("partition holds %d of %d samples", n, len(samples))
	}

	var growth uint64
	if filled.HeapAlloc > base.HeapAlloc {
		growth = filled.HeapAlloc - base.HeapAlloc
	}
	const slack = 2 * (1<<20 + 80<<10) // per part: its partly filled last chunk and the Writer's buffers, with room to spare
	limit := uint64(encoded)*5/4 + slack
	t.Logf("%d samples, %d B encoded (%.1f B/sample): partition +%.1f MiB (%.1f B/sample), limit %.1f MiB",
		len(samples), encoded, float64(encoded)/float64(len(samples)),
		float64(growth)/(1<<20), float64(growth)/float64(len(samples)), float64(limit)/(1<<20))
	if growth > limit {
		t.Errorf("partition of %d samples holds %.1f MiB, over 1.25x their %.1f MiB encoded plus %.1f MiB slack",
			len(samples), float64(growth)/(1<<20), float64(encoded)/(1<<20), float64(slack)/(1<<20))
	}
	runtime.KeepAlive(samples)
}

// sampleSize is the in-memory size of one trace.Sample header.
var sampleSize = reflect.TypeOf(trace.Sample{}).Size()
