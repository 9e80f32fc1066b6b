package analysis

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartusage/internal/mempool"
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

// Pools shared by every campaign analysis in the process. The shard engine
// copies the whole campaign into memory (sample slabs plus arena chunks for
// the per-sample Apps/APs slices); recycling those buffers across campaign
// years and repeated runs is what keeps the parallel path's steady-state
// allocation near the streaming path's, instead of 11x over it.
var (
	samplePool = mempool.NewSlicePool[trace.Sample](64)
	apObsPool  = mempool.NewSlicePool[trace.APObs](256)
	appPool    = mempool.NewSlicePool[trace.AppTraffic](256)
	floatPool  = mempool.NewSlicePool[float64](64)
)

// shardPart is one device-partition of a campaign held in pooled memory:
// the sample slab plus the arenas backing every sample's Apps/APs slices.
type shardPart struct {
	samples []trace.Sample
	aps     mempool.Arena[trace.APObs]
	apps    mempool.Arena[trace.AppTraffic]
}

// add deep-copies s into the part, growing the slab through the pool.
func (p *shardPart) add(s *trace.Sample) {
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

// release returns every buffer to the pools; the part is empty afterwards.
func (p *shardPart) release() {
	samplePool.Put(p.samples)
	p.samples = nil
	p.aps.Release()
	p.apps.Release()
}

// Shards holds a campaign's samples decoded once and partitioned by device,
// so both pipeline passes can stream from memory without touching the codec
// again. Its memory comes from process-wide pools: call Release when the
// analyses are done so the next campaign reuses the slabs.
type Shards struct {
	parts []shardPart
}

// NewShards returns an empty n-way partition (n < 1 is treated as 1).
func NewShards(n int) *Shards {
	if n < 1 {
		n = 1
	}
	sh := &Shards{parts: make([]shardPart, n)}
	for w := range sh.parts {
		sh.parts[w].aps = mempool.NewArena(apObsPool)
		sh.parts[w].apps = mempool.NewArena(appPool)
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

// NumShards returns the partition width.
func (sh *Shards) NumShards() int { return len(sh.parts) }

// Len returns the total number of samples held.
func (sh *Shards) Len() int {
	n := 0
	for i := range sh.parts {
		n += len(sh.parts[i].samples)
	}
	return n
}

// Release returns the partition's buffers to the process-wide pools. The
// Shards (and every sample ever streamed from it) is invalid afterwards;
// callers release only after all results are assembled. Analyzers honor this
// by never retaining a sample's slices past Add — the merge contract's
// retention rule (see DESIGN.md "Memory & pooling").
func (sh *Shards) Release() {
	for w := range sh.parts {
		sh.parts[w].release()
	}
}

// ShardSamples decodes src exactly once into an n-way device partition.
func ShardSamples(src Source, n int) (*Shards, error) {
	sh := NewShards(n)
	if err := src(sh.Add); err != nil {
		return nil, err
	}
	return sh, nil
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

// sampleBatch is one unit of fan-out transfer: a pooled slab of deep-copied
// samples whose Apps/APs live in the batch's own arenas. Batches cycle
// decoder → worker → decoder within a pass; the worker resets the batch once
// every sample in it has been fed to work, which is why analyzers must not
// retain sample slices past Add.
type sampleBatch struct {
	samples []trace.Sample
	aps     mempool.Arena[trace.APObs]
	apps    mempool.Arena[trace.AppTraffic]
}

// newBatch returns an empty batch; its slab comes from the sample pool, which
// (unlike a sync.Pool) survives garbage collections, so repeated passes reuse
// slabs and their allocation stays deterministic.
func newBatch() *sampleBatch {
	return &sampleBatch{
		samples: samplePool.Get(fanOutBatch),
		aps:     mempool.NewArena(apObsPool),
		apps:    mempool.NewArena(appPool),
	}
}

// add deep-copies s into the batch.
func (b *sampleBatch) add(s *trace.Sample) {
	b.samples = append(b.samples, *s)
	ns := &b.samples[len(b.samples)-1]
	ns.Apps = b.apps.Append(s.Apps)
	ns.APs = b.aps.Append(s.APs)
}

// reset empties the batch for reuse.
func (b *sampleBatch) reset() {
	b.samples = b.samples[:0]
	b.aps.Release()
	b.apps.Release()
}

// fanOut is the one streaming pass driver: it runs src once on the calling
// goroutine and calls work for every sample, with shard = the sample's
// device hash modulo n. Each shard's samples reach work in stream order.
//
// The decoder deep-copies samples into batches handed to one worker
// goroutine per shard, so decoding batch k+1 overlaps work on batch k — even
// with n == 1.
//
// A work error stops the decode at the next sample. The source error takes
// precedence; otherwise the lowest-shard work error is returned.
func fanOut(src Source, n int, work func(shard int, s *trace.Sample) error) error {
	errs := make([]error, n)
	// Filled batches travel decoder → worker over full[w] and come back
	// empty over free[w], which starts with all fanOutBacklog+2 of the
	// worker's batches.
	full := make([]chan *sampleBatch, n)
	free := make([]chan *sampleBatch, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range full {
		full[w] = make(chan *sampleBatch, fanOutBacklog)
		free[w] = make(chan *sampleBatch, fanOutBacklog+2)
		for i := 0; i < cap(free[w]); i++ {
			free[w] <- newBatch()
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range full[w] {
				for i := range b.samples {
					if errs[w] != nil {
						break
					}
					if err := work(w, &b.samples[i]); err != nil {
						errs[w] = err
						stop.Store(true)
					}
				}
				b.reset()
				free[w] <- b
			}
		}(w)
	}

	filling := make([]*sampleBatch, n)
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
			samplePool.Put(b.samples)
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
// the one-worker pass feeds the base analyzers directly and merges nothing.
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

// resolveWorkers maps a workers argument to a concrete count: <= 0 selects
// GOMAXPROCS.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run performs the second pass over src on workers goroutines (<= 0 selects
// GOMAXPROCS): raw analyzers see every sample; cleaned analyzers see samples
// that survive the paper's cleaning rules, evaluated against prep (tethered
// intervals removed; for updated devices, the update day and the following
// day removed, §2). Samples stream once through fanOut; with several workers
// each feeds its own analyzer shards, merged back into cleaned and raw in
// shard order. One worker, or any analyzer that is not shardable, feeds the
// base analyzers directly.
func Run(src Source, prep *Prep, cleaned []Analyzer, raw []Analyzer, workers int) error {
	perCleaned, perRaw, n := shardBattery(cleaned, raw, resolveWorkers(workers))
	sp := traceStart("analysis:run").Arg("workers", strconv.Itoa(n))
	defer sp.End()
	err := fanOut(src, n, func(w int, s *trace.Sample) error {
		dispatch(s, prep, perCleaned[w], perRaw[w])
		return nil
	})
	if err != nil || n == 1 {
		return err
	}
	mergeShards(cleaned, perCleaned)
	mergeShards(raw, perRaw)
	return nil
}

// BuildPrep runs the first pass over src on workers goroutines (<= 0 selects
// GOMAXPROCS) and derives all shared context: each worker accumulates its
// device partition's prepass state, and the partitions are folded and
// finalized in shard order. updateRelease, when non-nil, enables iOS-update
// detection from that instant (2015 campaign).
func BuildPrep(meta Meta, src Source, updateRelease *time.Time, workers int) (*Prep, error) {
	workers = resolveWorkers(workers)
	sp := traceStart("analysis:prep").Arg("workers", strconv.Itoa(workers))
	defer sp.End()
	shards := make([]*prepShard, workers)
	for w := range shards {
		shards[w] = newPrepShard(meta, updateRelease)
	}
	if err := fanOut(src, workers, func(w int, s *trace.Sample) error {
		return shards[w].add(s)
	}); err != nil {
		return nil, err
	}
	return finishPrep(meta, updateRelease, shards), nil
}

// RunShards is the second pass over a pre-partitioned in-memory campaign:
// one goroutine per shard, no decoding and no copying, merged in shard
// order. A single-shard partition, or a battery with an unshardable
// analyzer, is replayed in shard order on the calling goroutine instead.
func RunShards(sh *Shards, prep *Prep, cleaned []Analyzer, raw []Analyzer) error {
	perCleaned, perRaw, n := shardBattery(cleaned, raw, sh.NumShards())
	sp := traceStart("analysis:run-shards").Arg("shards", strconv.Itoa(n))
	defer sp.End()
	if n == 1 {
		for w := range sh.parts {
			part := sh.parts[w].samples
			for i := range part {
				dispatch(&part[i], prep, cleaned, raw)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ssp := traceStart("analysis:shard").OnTID(w + 1)
			part := sh.parts[w].samples
			for i := range part {
				dispatch(&part[i], prep, perCleaned[w], perRaw[w])
			}
			ssp.End()
		}(w)
	}
	wg.Wait()
	mergeShards(cleaned, perCleaned)
	mergeShards(raw, perRaw)
	return nil
}

// BuildPrepShards is the first pass over a pre-partitioned campaign: each
// shard accumulates its own prepass state concurrently, then the shards are
// folded and finalized exactly like BuildPrep.
func BuildPrepShards(meta Meta, sh *Shards, updateRelease *time.Time) (*Prep, error) {
	n := sh.NumShards()
	sp := traceStart("analysis:prep-shards").Arg("shards", strconv.Itoa(n))
	defer sp.End()
	shards := make([]*prepShard, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			psp := traceStart("analysis:prep-shard").OnTID(w + 1)
			ps := newPrepShard(meta, updateRelease)
			part := sh.parts[w].samples
			for i := range part {
				if err := ps.add(&part[i]); err != nil {
					errs[w] = err
					psp.End()
					return
				}
			}
			shards[w] = ps
			psp.End()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	fsp := traceStart("analysis:prep-finish")
	defer fsp.End()
	return finishPrep(meta, updateRelease, shards), nil
}
