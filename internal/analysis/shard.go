package analysis

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartusage/internal/mempool"
	"smartusage/internal/obs"
	"smartusage/internal/trace"
)

// This file implements the analysis engine that drives both pipeline passes.
// Both passes admit a map-reduce shape: samples are partitioned by device (so
// all state keyed per device stays shard-local), each shard accumulates
// independently, and shard results are merged in fixed shard order. One
// worker is the degenerate case: a single shard, fed the base analyzers, with
// nothing to merge.
//
// Determinism contract: given the same samples, the pipeline produces
// identical results for any worker or shard count.
// This holds because (a) analyzer accumulations sum integer-valued floats
// (byte counts, interval counts, battery levels), which float64 adds exactly
// in any order; (b) merges always run in shard-index order on one goroutine;
// (c) the few stream-order-dependent reductions (AP first-observation
// snapshots, raw duration slices) use explicit deterministic rules instead
// of arrival order.

// ShardedAnalyzer is an Analyzer that can fan out over device-partitioned
// shards and fold the shards back together.
type ShardedAnalyzer interface {
	Analyzer
	// NewShard returns a fresh, empty analyzer of the same kind and
	// configuration, safe to feed from another goroutine.
	NewShard() Analyzer
	// Merge folds a shard previously returned by NewShard into the
	// receiver. Callers guarantee no two merged shards saw the same
	// device, and always merge in fixed shard order.
	Merge(shard Analyzer)
}

// shardOf maps a device to one of n shards. The device bits go through a
// splitmix64-style finalizer first so that sequentially assigned IDs spread
// evenly for every shard count.
func shardOf(dev trace.DeviceID, n int) int {
	x := uint64(dev)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// Pools shared by every campaign analysis in the process. Every slab — a
// Shards part or a fan-out batch — holds deep-copied samples in these pools'
// buffers (sample slabs plus arena chunks for the per-sample Apps/APs
// slices); recycling them across passes, campaign years and repeated runs is
// what keeps steady-state allocation per pass instead of per sample. Each
// pool keeps at most mempool.RetainBytes between uses: enough for the
// fan-out's batches, while a released Shards' campaign-sized slabs go to the
// GC.
var (
	samplePool = mempool.NewSlicePool[trace.Sample](64)
	apObsPool  = mempool.NewSlicePool[trace.APObs](256)
	appPool    = mempool.NewSlicePool[trace.AppTraffic](256)
)

// slab is a run of deep-copied samples held in pooled memory: the sample
// buffer plus the arenas backing every sample's Apps/APs slices. It serves
// as one device partition of a Shards and as one fan-out batch.
type slab struct {
	samples []trace.Sample
	aps     mempool.Arena[trace.APObs]
	apps    mempool.Arena[trace.AppTraffic]
}

// newSlab returns an empty slab over the sample buffer samples; a nil buffer
// is taken from the pool by the first add.
func newSlab(samples []trace.Sample) slab {
	return slab{samples: samples, aps: mempool.NewArena(apObsPool), apps: mempool.NewArena(appPool)}
}

// add deep-copies s into the slab, growing the buffer through the pool.
func (p *slab) add(s *trace.Sample) {
	if len(p.samples) == cap(p.samples) {
		n := 2 * cap(p.samples)
		if n < 1024 {
			n = 1024
		}
		p.samples = samplePool.Grow(p.samples, n)
	}
	p.samples = append(p.samples, *s)
	ns := &p.samples[len(p.samples)-1]
	ns.Apps = p.apps.Append(s.Apps)
	ns.APs = p.aps.Append(s.APs)
}

// each calls work(w, s) for every sample of the slab in order, stopping at
// the first error.
func (p *slab) each(w int, work func(int, *trace.Sample) error) error {
	for i := range p.samples {
		if err := work(w, &p.samples[i]); err != nil {
			return err
		}
	}
	return nil
}

// reset empties the slab for reuse; it keeps its sample buffer.
func (p *slab) reset() {
	p.samples = p.samples[:0]
	p.aps.Release()
	p.apps.Release()
}

// release returns every buffer to the pools; the slab is empty afterwards.
func (p *slab) release() {
	p.reset()
	samplePool.Put(p.samples)
	p.samples = nil
}

// Input is what a pass reads, in one of two forms: a Source decoded once per
// pass (Stream), or a campaign held in memory as a device partition
// (*Shards). Its methods are unexported, so those are its only forms. Either
// way a pass sees the samples partitioned by device, each shard's in stream
// order on one goroutine, so BuildPrep and Run are each written once.
type Input interface {
	// width is the number of device shards the input offers a pass.
	width() int
	// span starts the span of pass p over the input at n shards.
	span(p pass, n int) *obs.Span
	// each calls work(w, s) for every sample s, w being the shard of s's
	// device among n, which is width() or 1. It returns the first error.
	each(p pass, n int, work func(w int, s *trace.Sample) error) error
}

// pass names one pass's spans for each input form: the whole pass over a
// Stream, the whole pass over *Shards, and one shard of the latter.
// pipebench's per-layer metrics classify the passes by these names.
type pass struct{ stream, shards, shard string }

var (
	prepPass = pass{stream: "analysis:prep", shards: "analysis:prep-shards", shard: "analysis:prep-shard"}
	runPass  = pass{stream: "analysis:run", shards: "analysis:run-shards", shard: "analysis:shard"}
)

// Shards holds a campaign's samples partitioned by device in memory, so both
// passes read them in place without touching the codec again. Its memory
// comes from process-wide pools: call Release when the analyses are done.
// The pools keep what fits under mempool.RetainBytes for later passes, and
// hand the rest — most of a campaign — to the GC.
type Shards struct {
	parts []slab
}

// NewShards returns an empty n-way partition (n < 1 is treated as 1).
func NewShards(n int) *Shards {
	if n < 1 {
		n = 1
	}
	sh := &Shards{parts: make([]slab, n)}
	for w := range sh.parts {
		sh.parts[w] = newSlab(nil)
	}
	return sh
}

// Add routes one sample to its device's shard. The sample is deep-copied,
// so Add is safe to use as a simulation sink or Source callback whose
// *trace.Sample is reused. Not safe for concurrent use.
func (sh *Shards) Add(s *trace.Sample) error {
	sh.parts[shardOf(s.Device, len(sh.parts))].add(s)
	return nil
}

// Len returns the total number of samples held.
func (sh *Shards) Len() int {
	n := 0
	for i := range sh.parts {
		n += len(sh.parts[i].samples)
	}
	return n
}

// Release returns the partition's buffers to the process-wide pools, which
// keep them only up to their byte bound. The Shards (and every sample ever
// streamed from it) is invalid afterwards; callers release only after all
// results are assembled. Analyzers honor this by never retaining a sample's
// slices past Add — the merge contract's retention rule (see DESIGN.md
// "Memory & pooling").
func (sh *Shards) Release() {
	for w := range sh.parts {
		sh.parts[w].release()
	}
}

func (sh *Shards) width() int { return len(sh.parts) }

func (sh *Shards) span(p pass, n int) *obs.Span {
	return traceStart(p.shards).Arg("shards", strconv.Itoa(n))
}

// each reads the parts in place, with no decode and no copy. With n == 1 —
// a one-part partition, or a battery that cannot shard — it reads every part
// in order on the calling goroutine; otherwise each part gets a goroutine and
// a trace track of its own.
func (sh *Shards) each(p pass, n int, work func(int, *trace.Sample) error) error {
	if n == 1 {
		for w := range sh.parts {
			if err := sh.parts[w].each(0, work); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range sh.parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := traceStart(p.shard).OnTID(w + 1)
			errs[w] = sh.parts[w].each(w, work)
			sp.End()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream returns src as a pass input on workers goroutines (workers < 1 is
// treated as 1, as NewShards does). Each pass decodes src once through
// fanOut, so memory stays bounded by the in-flight batches whatever the
// trace length.
func Stream(src Source, workers int) Input {
	if workers < 1 {
		workers = 1
	}
	return stream{src: src, workers: workers}
}

type stream struct {
	src     Source
	workers int
}

func (st stream) width() int { return st.workers }

func (st stream) span(p pass, n int) *obs.Span {
	return traceStart(p.stream).Arg("workers", strconv.Itoa(n))
}

func (st stream) each(_ pass, n int, work func(int, *trace.Sample) error) error {
	return fanOut(st.src, n, work)
}

// Fan-out tuning: workers receive samples in batches to amortize channel
// operations; a small backlog per worker keeps the decoder ahead without
// holding much of the trace in flight. Each worker owns at most
// fanOutBacklog+2 batches (the backlog, the one it is working on, and the one
// the decoder is filling), so a pass holds at most that many batches of
// samples per worker whatever the trace length.
const (
	fanOutBatch   = 512
	fanOutBacklog = 4
)

// errFanOutStopped aborts the source pass after a worker failure.
var errFanOutStopped = errors.New("analysis: fan-out stopped")

// fanOut is the one streaming pass driver: it runs src once on the calling
// goroutine and calls work for every sample, with shard = the sample's
// device hash modulo n. Each shard's samples reach work in stream order.
//
// The decoder deep-copies samples into batches — slabs whose buffers come
// from the sample pool, which (unlike a sync.Pool) survives garbage
// collections — handed to one worker goroutine per shard, so decoding batch
// k+1 overlaps work on batch k, even with n == 1. A worker resets each batch
// once every sample in it has been fed to work, which is why analyzers must
// not retain sample slices past Add.
//
// A work error stops the decode at the next sample. The source error takes
// precedence; otherwise the lowest-shard work error is returned.
func fanOut(src Source, n int, work func(shard int, s *trace.Sample) error) error {
	errs := make([]error, n)
	// Filled batches travel decoder → worker over full[w] and come back
	// empty over free[w], which starts with all fanOutBacklog+2 of the
	// worker's batches.
	full := make([]chan *slab, n)
	free := make([]chan *slab, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range full {
		full[w] = make(chan *slab, fanOutBacklog)
		free[w] = make(chan *slab, fanOutBacklog+2)
		for i := 0; i < cap(free[w]); i++ {
			b := newSlab(samplePool.Get(fanOutBatch))
			free[w] <- &b
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range full[w] {
				if errs[w] == nil {
					if errs[w] = b.each(w, work); errs[w] != nil {
						stop.Store(true)
					}
				}
				b.reset()
				free[w] <- b
			}
		}(w)
	}

	filling := make([]*slab, n)
	srcErr := src(func(s *trace.Sample) error {
		if stop.Load() {
			return errFanOutStopped
		}
		w := shardOf(s.Device, n)
		b := filling[w]
		if b == nil {
			b = <-free[w]
			filling[w] = b
		}
		b.add(s)
		if len(b.samples) >= fanOutBatch {
			full[w] <- b
			filling[w] = nil
		}
		return nil
	})
	for w := range full {
		if b := filling[w]; b != nil {
			if srcErr == nil {
				full[w] <- b
			} else {
				b.reset()
				free[w] <- b
			}
		}
		close(full[w])
	}
	wg.Wait()
	for w := range free {
		close(free[w])
		for b := range free[w] {
			b.release()
		}
	}
	if srcErr != nil && !errors.Is(srcErr, errFanOutStopped) {
		return srcErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardBattery prepares the analyzer sets for an n-way pass: per-shard clones
// made with NewShard, and n itself. With one shard, or when any analyzer is
// not a ShardedAnalyzer, it returns the base sets as the single shard and 1:
// the one-shard pass feeds the base analyzers directly and merges nothing.
func shardBattery(cleaned, raw []Analyzer, n int) (perCleaned, perRaw [][]Analyzer, shards int) {
	if n > 1 {
		c, okC := shardAnalyzers(cleaned, n)
		r, okR := shardAnalyzers(raw, n)
		if okC && okR {
			return c, r, n
		}
	}
	return [][]Analyzer{cleaned}, [][]Analyzer{raw}, 1
}

// shardAnalyzers clones every base analyzer n times via NewShard. ok is false
// when any analyzer does not implement ShardedAnalyzer.
func shardAnalyzers(base []Analyzer, n int) (perShard [][]Analyzer, ok bool) {
	perShard = make([][]Analyzer, n)
	for w := range perShard {
		perShard[w] = make([]Analyzer, len(base))
	}
	for i, a := range base {
		sa, isSharded := a.(ShardedAnalyzer)
		if !isSharded {
			return nil, false
		}
		for w := 0; w < n; w++ {
			perShard[w][i] = sa.NewShard()
		}
	}
	return perShard, true
}

// mergeShards folds per-shard analyzers back into the base set, always in
// shard-index order so merge-order-sensitive state stays deterministic.
func mergeShards(base []Analyzer, perShard [][]Analyzer) {
	for i, a := range base {
		sp := traceStart("analysis:merge").Arg("analyzer", fmt.Sprintf("%T", a))
		sa := a.(ShardedAnalyzer)
		for w := range perShard {
			sa.Merge(perShard[w][i])
		}
		sp.End()
	}
}

// Run performs the second pass over in: raw analyzers see every sample;
// cleaned analyzers see samples that survive the paper's cleaning rules,
// evaluated against prep (tethered intervals removed; for updated devices,
// the update day and the following day removed, §2). With several shards
// each feeds its own analyzer shards, merged back into cleaned and raw in
// shard order. One shard, or any analyzer that is not shardable, feeds the
// base analyzers directly.
func Run(in Input, prep *Prep, cleaned []Analyzer, raw []Analyzer) error {
	perCleaned, perRaw, n := shardBattery(cleaned, raw, in.width())
	sp := in.span(runPass, n)
	defer sp.End()
	upd := make([]updateMemo, n)
	err := in.each(runPass, n, func(w int, s *trace.Sample) error {
		dispatch(s, prep, perCleaned[w], perRaw[w], &upd[w])
		return nil
	})
	if err != nil || n == 1 {
		return err
	}
	mergeShards(cleaned, perCleaned)
	mergeShards(raw, perRaw)
	return nil
}

// BuildPrep runs the first pass over in and derives all shared context: each
// shard accumulates its device partition's prepass state, and the partitions
// are folded and finalized in shard order. updateRelease, when non-nil,
// enables iOS-update detection from that instant (2015 campaign).
//
// Each device's samples must arrive in time order; devices may interleave.
// The pass folds a device's night-time and update evidence into per-device
// state when its stream reaches a later day, so that state is O(devices),
// and a sample for a day its device has already left fails the pass with
// an error wrapping ErrClosedDay that names the device and both days.
func BuildPrep(meta Meta, in Input, updateRelease *time.Time) (*Prep, error) {
	shards := make([]*prepShard, in.width())
	for w := range shards {
		shards[w] = newPrepShard(meta, updateRelease)
	}
	sp := in.span(prepPass, len(shards))
	defer sp.End()
	if err := in.each(prepPass, len(shards), func(w int, s *trace.Sample) error {
		return shards[w].add(s)
	}); err != nil {
		return nil, err
	}
	fsp := traceStart("analysis:prep-finish")
	defer fsp.End()
	return finishPrep(meta, shards), nil
}
