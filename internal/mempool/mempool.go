// Package mempool provides explicitly managed free lists for the buffers the
// analysis and wire hot paths recycle across campaign runs: growable slabs
// (SlicePool) and bump-allocated copy arenas (Arena).
//
// Unlike sync.Pool, these pools survive garbage collections, so steady-state
// workloads (repeated campaign analyses, long-lived collectors) converge to
// zero slab allocations and their allocation ceilings can be asserted with
// testing.AllocsPerRun. The trade is retained memory: a pool holds on to the
// largest buffers it has seen, bounded by its count limit and by
// RetainBytes.
//
// Ownership rule: a buffer obtained from Get (directly or through an Arena)
// is owned by the caller until Put/Release returns it; after that the memory
// may be handed to any other goroutine and overwritten. Nothing may retain a
// pointer into pooled memory past the Put — see DESIGN.md "Memory & pooling"
// for how the analysis engine enforces this on analyzers.
package mempool

import (
	"sync"
	"unsafe"
)

// defaultRetain bounds how many buffers a pool keeps when no limit is given.
// Campaign analyses run at most a handful of concurrent years, each wanting
// one generation of slabs per shard, so a small two-digit count is plenty.
const defaultRetain = 16

// RetainBytes bounds the buffer capacity, in bytes, that one pool keeps
// between uses, besides its count limit; Put hands the garbage collector any
// buffer that would take the pool past it. Without it a pool keeps the
// largest buffers it has ever seen, so the slabs of one in-memory campaign
// (a whole campaign's samples) stay live for the life of the process.
//
// 8 MiB keeps the streaming fan-out's working set pooled: fanOutBacklog+2
// batches per worker, each a 60 KiB sample slab plus an arena chunk of AP
// observations (256 KiB) and one of app records (192 KiB). Repeated
// three-year studies at two workers keep 1.4, 5.8 and 4.5 MiB of them and
// allocate none between rounds; what goes to the GC are the campaign-sized
// buffers, such as each campaign's availability accumulators.
const RetainBytes = 8 << 20

// SlicePool recycles []T buffers across users. It is safe for concurrent
// use. The zero value is NOT usable; construct with NewSlicePool.
type SlicePool[T any] struct {
	mu     sync.Mutex
	bufs   [][]T
	retain int
	held   int // bytes of capacity in bufs
	elem   int // bytes per element

	gets, misses uint64
}

// NewSlicePool returns a pool retaining up to retain buffers, and at most
// RetainBytes of them, between uses (retain <= 0 selects a small default).
func NewSlicePool[T any](retain int) *SlicePool[T] {
	if retain <= 0 {
		retain = defaultRetain
	}
	var zero T
	return &SlicePool[T]{retain: retain, elem: int(unsafe.Sizeof(zero))}
}

// Get returns a zero-length buffer with capacity at least n, preferring the
// smallest pooled buffer that fits so large slabs stay available for large
// requests. When nothing fits it allocates.
func (p *SlicePool[T]) Get(n int) []T {
	p.mu.Lock()
	p.gets++
	best := -1
	for i := range p.bufs {
		if cap(p.bufs[i]) >= n && (best < 0 || cap(p.bufs[i]) < cap(p.bufs[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := p.bufs[best]
		p.held -= cap(b) * p.elem
		last := len(p.bufs) - 1
		p.bufs[best] = p.bufs[last]
		p.bufs[last] = nil
		p.bufs = p.bufs[:last]
		p.mu.Unlock()
		return b[:0]
	}
	p.misses++
	p.mu.Unlock()
	if n < 1 {
		n = 1
	}
	return make([]T, 0, n)
}

// Put offers b back to the pool. The caller must not touch b afterwards.
// When the pool holds its count limit the smallest buffer is evicted, so the
// pool's retained set grows toward the workload's high-water marks; a buffer
// that would take the pool past RetainBytes is dropped instead.
func (p *SlicePool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	size := cap(b) * p.elem
	b = b[:0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bufs) < p.retain {
		if p.held+size <= RetainBytes {
			p.bufs = append(p.bufs, b)
			p.held += size
		}
		return
	}
	small := 0
	for i := range p.bufs {
		if cap(p.bufs[i]) < cap(p.bufs[small]) {
			small = i
		}
	}
	evicted := cap(p.bufs[small]) * p.elem
	if evicted < size && p.held-evicted+size <= RetainBytes {
		p.bufs[small] = b
		p.held += size - evicted
	}
}

// Grow returns a buffer with capacity at least n holding b's elements,
// recycling b through the pool when a move was needed. It is the pooled
// analogue of append's growth step: callers use it to extend a slab without
// abandoning the old one to the garbage collector.
func (p *SlicePool[T]) Grow(b []T, n int) []T {
	if cap(b) >= n {
		return b
	}
	want := 2 * cap(b)
	if want < n {
		want = n
	}
	nb := p.Get(want)
	nb = nb[:len(b)]
	copy(nb, b)
	p.Put(b)
	return nb
}

// Held reports the bytes of buffer capacity the pool keeps between uses; it
// never exceeds RetainBytes.
func (p *SlicePool[T]) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// Stats reports how many Gets the pool has served and how many of those had
// to allocate. Tests use it to assert steady-state hit rates.
func (p *SlicePool[T]) Stats() (gets, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.misses
}

// arenaChunk is the default capacity of one arena chunk. Large enough to
// amortize pool round-trips over thousands of small appends, small enough
// that a mostly-idle shard does not pin megabytes.
const arenaChunk = 8192

// Arena bump-allocates copies of small slices out of pooled chunks. One
// arena belongs to one goroutine; Release returns every chunk to the backing
// pool. The zero value is not usable; construct with NewArena.
type Arena[T any] struct {
	pool   *SlicePool[T]
	chunks [][]T // chunks[len-1] is active; its len is the used portion
}

// NewArena returns an empty arena drawing chunks from pool.
func NewArena[T any](pool *SlicePool[T]) Arena[T] {
	return Arena[T]{pool: pool}
}

// Append copies src into the arena and returns the copy, capacity-clamped so
// a later append on the returned slice cannot bleed into neighbouring
// allocations. Empty input returns nil, matching what a deep clone of a nil
// slice yields.
func (a *Arena[T]) Append(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	k := len(a.chunks) - 1
	if k < 0 || cap(a.chunks[k])-len(a.chunks[k]) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, a.pool.Get(size))
		k++
	}
	c := a.chunks[k]
	start := len(c)
	// The stored header keeps the chunk's full capacity; only the returned
	// view is capacity-clamped.
	a.chunks[k] = c[:start+n]
	dst := c[start : start+n : start+n]
	copy(dst, src)
	return dst
}

// Release returns every chunk to the backing pool. The arena is empty and
// reusable afterwards; all slices it handed out are invalid.
func (a *Arena[T]) Release() {
	for i, c := range a.chunks {
		a.pool.Put(c)
		a.chunks[i] = nil
	}
	a.chunks = a.chunks[:0]
}
