package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// Chunk sizes, in elements: a chunk list starts at minChunk and each new
// chunk doubles the last up to maxChunk. minChunk is one fan-out batch,
// whose samples thus fill exactly one chunk. A Shards part's bytes come in
// flushes of its Writer's 64 KiB buffer, maxChunk bytes, one per chunk.
const (
	minChunk = fanOutBatch
	maxChunk = 64 << 10
)

// chunks holds elements of T in a list of fixed-capacity chunks. A chunk is
// never moved or regrown, so a slice handed out by alloc stays valid until
// reset, and growth allocates a new chunk instead of copying what is held.
type chunks[T any] struct {
	// list[:cur+1] hold the elements in order; the chunks after cur are
	// empty ones that reset kept for reuse.
	list [][]T
	cur  int
}

// alloc returns room for n elements, contiguous and capacity-clamped so an
// append on it cannot spill into its neighbours.
func (c *chunks[T]) alloc(n int) []T {
	if len(c.list) > 0 {
		k := c.list[c.cur]
		if start := len(k); cap(k)-start >= n {
			c.list[c.cur] = k[:start+n]
			return k[start : start+n : start+n]
		}
		c.cur++
	}
	if c.cur == len(c.list) {
		size := minChunk
		if c.cur > 0 {
			size = min(2*cap(c.list[c.cur-1]), maxChunk)
		} else {
			c.list = make([][]T, 0, 8) // room for the chunks up to maxChunk
		}
		c.list = append(c.list, make([]T, 0, max(n, size)))
	} else if cap(c.list[c.cur]) < n {
		c.list[c.cur] = make([]T, 0, n)
	}
	k := c.list[c.cur][:n]
	c.list[c.cur] = k
	return k[:n:n]
}

// copyOf copies src into the list. Empty input returns nil, matching what a
// deep clone of a nil slice yields.
func (c *chunks[T]) copyOf(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := c.alloc(len(src))
	copy(dst, src)
	return dst
}

// reset empties every chunk and keeps them for reuse; every slice alloc
// handed out is invalid afterwards.
func (c *chunks[T]) reset() {
	for i := range c.list {
		c.list[i] = c.list[i][:0]
	}
	c.cur = 0
}

// slab is a fan-out batch of deep-copied samples that owns its memory: the
// samples plus the AP observations and app records their slices point into,
// each in a chunk list of its own.
type slab struct {
	samples chunks[trace.Sample]
	aps     chunks[trace.APObs]
	apps    chunks[trace.AppTraffic]
	n       int // samples held
}

// add deep-copies s into the slab.
func (p *slab) add(s *trace.Sample) {
	ns := &p.samples.alloc(1)[0]
	*ns = *s
	ns.Apps = p.apps.copyOf(s.Apps)
	ns.APs = p.aps.copyOf(s.APs)
	p.n++
}

// each calls work(w, s) for every sample of the slab in order, stopping at
// the first error.
func (p *slab) each(w int, work func(int, *trace.Sample) error) error {
	for _, k := range p.samples.list {
		for i := range k {
			if err := work(w, &k[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// reset empties the slab for reuse; it keeps its chunks.
func (p *slab) reset() {
	p.samples.reset()
	p.aps.reset()
	p.apps.reset()
	p.n = 0
}

// part is one device partition of a Shards: its samples as a binary trace,
// written by a trace.Writer into a byte chunk list.
type part struct {
	w      *trace.Writer // nil until the part's first sample
	chunks chunks[byte]
	n      int // samples held
}

// add appends s's record to the part.
func (p *part) add(s *trace.Sample) error {
	if p.w == nil {
		p.w = trace.NewWriter(p)
	}
	p.n++
	return p.w.Write(s)
}

// Write appends b to the chunks; it is the io.Writer under p.w.
func (p *part) Write(b []byte) (int, error) {
	return copy(p.chunks.alloc(len(b)), b), nil
}

// each flushes p.w into the chunks, decodes them through a trace.Reader
// and calls work(w, s) for every sample in order, stopping at the first
// error. The Reader reuses s between calls, as a fan-out batch is reset
// after its analysis, and interns decoded ESSIDs as copies, never aliases
// of the chunks, so a Prep that keeps them outlives Release.
func (p *part) each(w int, work func(int, *trace.Sample) error) error {
	if p.w == nil {
		return nil
	}
	if err := p.w.Flush(); err != nil {
		return err
	}
	rs := make([]io.Reader, len(p.chunks.list))
	for i, c := range p.chunks.list {
		rs[i] = bytes.NewReader(c)
	}
	return trace.NewReader(io.MultiReader(rs...)).ReadAll(func(s *trace.Sample) error {
		return work(w, s)
	})
}

// Input is what a pass reads, in one of two forms: a Source decoded once per
// pass (Stream), or a campaign held in memory as a device partition
// (*Shards). Its methods are unexported, so those are its only forms. Either
// way a pass sees the samples partitioned by device, each shard's in stream
// order on one goroutine, so BuildPrep and Run are each written once.
type Input interface {
	// width is the number of device shards the input offers a pass.
	width() int
	// span starts the span of pass p over the input.
	span(p pass) *obs.Span
	// each calls work(w, s) for every sample s, w being the shard of s's
	// device among width(). It returns the first error.
	each(p pass, work func(w int, s *trace.Sample) error) error
}

// pass names one pass's spans for each input form: the whole pass over a
// Stream, the whole pass over *Shards, and one shard of the latter.
// pipebench's per-layer metrics classify the passes by these names.
type pass struct{ stream, shards, shard string }

var (
	prepPass = pass{stream: "analysis:prep", shards: "analysis:prep-shards", shard: "analysis:prep-shard"}
	runPass  = pass{stream: "analysis:run", shards: "analysis:run-shards", shard: "analysis:shard"}
)

// Shards holds a campaign partitioned by device in memory, each part as a
// binary trace: Add encodes a sample into its device's part, and every pass
// decodes each part on the goroutine that analyzes it. Encoded, a campaign
// costs about its trace size, a third to a quarter of its samples decoded,
// at the price of one decode per sample per pass.
type Shards struct {
	parts []part
}

// NewShards returns an empty n-way partition (n < 1 is treated as 1).
func NewShards(n int) *Shards {
	return &Shards{parts: make([]part, max(n, 1))}
}

// Add routes one sample to its device's shard. The sample is encoded, so
// Add is safe to use as a simulation sink or Source callback whose
// *trace.Sample is reused. Not safe for concurrent use.
func (sh *Shards) Add(s *trace.Sample) error {
	return sh.parts[shardOf(s.Device, len(sh.parts))].add(s)
}

// Len returns the total number of samples held.
func (sh *Shards) Len() int {
	n := 0
	for i := range sh.parts {
		n += sh.parts[i].n
	}
	return n
}

// Release drops the parts, leaving an empty partition of the same width, so
// a caller that keeps the Shards does not keep the campaign. Analyzers never
// retain a sample's slices past Add, and decoded ESSIDs are copies (see
// DESIGN.md "Memory"), so results assembled before Release stay valid.
func (sh *Shards) Release() {
	clear(sh.parts)
}

func (sh *Shards) width() int { return len(sh.parts) }

func (sh *Shards) span(p pass) *obs.Span {
	return traceStart(p.shards).Arg("shards", strconv.Itoa(len(sh.parts)))
}

// each decodes every part where it is analyzed: a one-part partition on
// the calling goroutine, otherwise each part on a goroutine and a trace
// track of its own. Reading does not consume the parts.
func (sh *Shards) each(p pass, work func(int, *trace.Sample) error) error {
	if len(sh.parts) == 1 {
		return sh.parts[0].each(0, work)
	}
	errs := make([]error, len(sh.parts))
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

func (st stream) span(p pass) *obs.Span {
	return traceStart(p.stream).Arg("workers", strconv.Itoa(st.workers))
}

func (st stream) each(_ pass, work func(int, *trace.Sample) error) error {
	return fanOut(st.src, st.workers, work)
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
// The decoder deep-copies samples into batches — slabs, which keep their
// chunks across resets, so a pass allocates each worker's batches once —
// handed to one worker goroutine per shard, so decoding batch k+1 overlaps
// work on batch k, even with n == 1. A worker resets each batch once every
// sample in it has been fed to work, which is why analyzers must not retain
// sample slices past Add.
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
			free[w] <- new(slab)
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
		if b.n >= fanOutBatch {
			full[w] <- b
			filling[w] = nil
		}
		return nil
	})
	for w := range full {
		if b := filling[w]; b != nil && srcErr == nil {
			full[w] <- b
		}
		close(full[w])
	}
	wg.Wait()
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

// shardAnalyzers prepares an analyzer set for an n-way pass: with one shard
// the base set itself, fed directly with nothing to merge; otherwise n
// clones of it made with NewShard.
func shardAnalyzers(base []Analyzer, n int) [][]Analyzer {
	if n == 1 {
		return [][]Analyzer{base}
	}
	perShard := make([][]Analyzer, n)
	for w := range perShard {
		perShard[w] = make([]Analyzer, len(base))
		for i, a := range base {
			perShard[w][i] = a.NewShard()
		}
	}
	return perShard
}

// mergeShards folds per-shard analyzers back into the base set, always in
// shard-index order so merge-order-sensitive state stays deterministic.
func mergeShards(base []Analyzer, perShard [][]Analyzer) {
	for i, a := range base {
		sp := traceStart("analysis:merge").Arg("analyzer", fmt.Sprintf("%T", a))
		for w := range perShard {
			a.Merge(perShard[w][i])
		}
		sp.End()
	}
}

// Run performs the second pass over in: raw analyzers see every sample;
// cleaned analyzers see samples that survive the paper's cleaning rules,
// evaluated against prep (tethered intervals removed; for updated devices,
// the update day and the following day removed, §2). With several shards
// each feeds its own analyzer shards, merged back into cleaned and raw in
// shard order. One shard feeds the base analyzers directly.
func Run(in Input, prep *Prep, cleaned []Analyzer, raw []Analyzer) error {
	n := in.width()
	perCleaned, perRaw := shardAnalyzers(cleaned, n), shardAnalyzers(raw, n)
	sp := in.span(runPass)
	defer sp.End()
	upd := make([]updateMemo, n)
	err := in.each(runPass, func(w int, s *trace.Sample) error {
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
	sp := in.span(prepPass)
	defer sp.End()
	if err := in.each(prepPass, func(w int, s *trace.Sample) error {
		return shards[w].add(s)
	}); err != nil {
		return nil, err
	}
	fsp := traceStart("analysis:prep-finish")
	defer fsp.End()
	return finishPrep(meta, shards), nil
}
