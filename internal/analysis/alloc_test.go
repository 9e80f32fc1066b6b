package analysis

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"smartusage/internal/trace"
)

// These tests pin the allocation contract of the shard engine: a slab
// allocates per chunk, never per sample, so partitioning a campaign or
// streaming it through the fan-out allocates a few dozen chunks plus
// bookkeeping. The ceilings are far below the fixture's sample count, so any
// per-sample allocation sneaking back into the hot path fails loudly.

func TestShardSamplesSteadyStateAllocs(t *testing.T) {
	meta, samples, _ := equivalenceFixture(t)
	_ = meta
	src := SliceSource(samples)
	if len(samples) < 5000 {
		t.Fatalf("fixture too thin for an alloc ceiling: %d samples", len(samples))
	}
	var err error
	cycle := func() {
		sh := NewShards(4)
		if err = src(sh.Add); err == nil {
			if sh.Len() != len(samples) {
				err = errShardLost
			}
			sh.Release()
		}
	}
	allocs := testing.AllocsPerRun(5, cycle)
	if err != nil {
		t.Fatal(err)
	}
	// Shards header, parts slice, and per part a few chunks and chunk-list
	// appends; the ~17k deep-copied samples must not allocate one by one.
	if allocs > 64 {
		t.Fatalf("NewShards+Add+Release allocates %.0f times per cycle over %d samples, want <= 64", allocs, len(samples))
	}
}

var errShardLost = errorString("shard partition lost samples")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFanOutSteadyStateAllocs(t *testing.T) {
	_, samples, _ := equivalenceFixture(t)
	src := SliceSource(samples)
	var err error
	var seen atomic.Int64 // work runs on one goroutine per shard
	cycle := func() {
		seen.Store(0)
		err = fanOut(src, 4, func(int, *trace.Sample) error {
			seen.Add(1)
			return nil
		})
	}
	cycle()
	if err != nil || seen.Load() != int64(len(samples)) {
		t.Fatalf("fan-out lost samples: %d of %d, err %v", seen.Load(), len(samples), err)
	}
	allocs := testing.AllocsPerRun(5, cycle)
	if err != nil {
		t.Fatal(err)
	}
	// Channels, goroutines, and the chunks of each worker's batches; not
	// per sample.
	if allocs > 256 {
		t.Fatalf("fanOut allocates %.0f times per pass over %d samples, want <= 256", allocs, len(samples))
	}
}

// batteryFootprint sums the bounded sketch state across the battery — the
// bytes that must NOT grow with the sample count. The per-device transient
// maps are deliberately excluded: they are O(devices) by design and the
// soak test budgets them separately.
func batteryFootprint(b sketchEquivalenceBattery) int {
	n := b.card.devices.Footprint() + b.card.aps.Footprint()
	for _, d := range b.durations.hours {
		n += d.q.Footprint()
	}
	return n
}

// TestSketchBatterySteadyStateAllocs pins the streaming contract of the
// sketch analyzers: once every device in the stream has its transient state
// (association run, partial AP-set day), re-feeding the whole campaign
// allocates a small constant — day flushes and run closes reuse their structs
// in place, and sketch updates are pure array writes.
func TestSketchBatterySteadyStateAllocs(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	prep, err := inlinePrep(meta, SliceSource(samples), release)
	if err != nil {
		t.Fatal(err)
	}
	_, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
	var upd updateMemo
	cycle := func() {
		for i := range samples {
			dispatch(&samples[i], prep, cleaned, raw, &upd)
		}
	}
	// Two warm passes populate the per-device maps and the rank breakdown.
	cycle()
	cycle()
	allocs := testing.AllocsPerRun(5, cycle)
	if allocs > 64 {
		t.Fatalf("warm sketch battery allocates %.0f times per pass over %d samples, want <= 64", allocs, len(samples))
	}
}

// TestSketchFootprintNoGrowth feeds the sketch battery ten times the
// campaign and asserts the sketch bytes never move: the distributions'
// memory is fixed at construction, independent of how many samples or
// user-days stream through. This is the property that makes the 1M-device
// soak's heap ceiling possible.
func TestSketchFootprintNoGrowth(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	prep, err := inlinePrep(meta, SliceSource(samples), release)
	if err != nil {
		t.Fatal(err)
	}
	b, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
	var upd updateMemo
	feed := func() {
		for i := range samples {
			dispatch(&samples[i], prep, cleaned, raw, &upd)
		}
	}
	feed()
	base := batteryFootprint(b)
	if base == 0 {
		t.Fatal("battery reports zero footprint; accounting is broken")
	}
	for i := 0; i < 9; i++ {
		feed()
	}
	if got := batteryFootprint(b); got != base {
		t.Fatalf("sketch footprint grew from %d to %d bytes after 10x samples; sketches must be bounded", base, got)
	}
}

// TestShardPoolConcurrentSoak builds and reads concurrent campaign
// partitions — the RunStudy shape — and verifies each one's deep copies stay
// intact. Run under -race it checks that no two partitions share memory.
func TestShardPoolConcurrentSoak(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	want, err := inlinePrep(meta, src, release)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				sh := NewShards(2 + g)
				if err := src(sh.Add); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got, err := BuildPrep(meta, sh, release)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("goroutine %d iter %d: shards corrupted the prepass", g, i)
					return
				}
				sh.Release()
			}
		}(g)
	}
	wg.Wait()
}
