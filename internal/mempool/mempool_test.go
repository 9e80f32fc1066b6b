package mempool

import (
	"sync"
	"testing"
)

func TestSlicePoolReuse(t *testing.T) {
	p := NewSlicePool[int](4)
	b := p.Get(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("Get(100) = len %d cap %d", len(b), cap(b))
	}
	b = b[:50]
	p.Put(b)
	c := p.Get(80)
	if cap(c) < 100 {
		t.Fatalf("pooled slab not reused: cap %d", cap(c))
	}
	if len(c) != 0 {
		t.Fatalf("reused slab not truncated: len %d", len(c))
	}
	if gets, misses := p.Stats(); gets != 2 || misses != 1 {
		t.Fatalf("stats = %d gets, %d misses; want 2, 1", gets, misses)
	}
}

func TestSlicePoolPrefersSmallestFit(t *testing.T) {
	p := NewSlicePool[byte](4)
	p.Put(make([]byte, 0, 1000))
	p.Put(make([]byte, 0, 100))
	if b := p.Get(50); cap(b) != 100 {
		t.Fatalf("Get(50) picked cap %d, want the 100 slab", cap(b))
	}
	if b := p.Get(500); cap(b) != 1000 {
		t.Fatalf("Get(500) picked cap %d, want the 1000 slab", cap(b))
	}
}

func TestSlicePoolEvictsSmallestWhenFull(t *testing.T) {
	p := NewSlicePool[byte](2)
	p.Put(make([]byte, 0, 10))
	p.Put(make([]byte, 0, 20))
	p.Put(make([]byte, 0, 30)) // evicts the 10
	caps := map[int]bool{cap(p.Get(1)): true, cap(p.Get(1)): true}
	if !caps[20] || !caps[30] {
		t.Fatalf("retained caps %v, want {20, 30}", caps)
	}
}

// TestSlicePoolByteBound puts more than RetainBytes into a pool with room
// by count: the pool keeps what fits under the byte bound and hands the rest
// to the GC, and Gets give the held bytes back.
func TestSlicePoolByteBound(t *testing.T) {
	p := NewSlicePool[int64](64)
	slab := RetainBytes / 8 / 5 // elements in a fifth of the bound
	for i := 0; i < 12; i++ {
		p.Put(make([]int64, 0, slab))
		if p.Held() > RetainBytes {
			t.Fatalf("after %d Puts of %d bytes the pool holds %d bytes, over RetainBytes %d",
				i+1, slab*8, p.Held(), RetainBytes)
		}
	}
	if want := 5 * slab * 8; p.Held() != want {
		t.Fatalf("pool holds %d bytes, want the %d of the five slabs that fit", p.Held(), want)
	}
	// A buffer larger than the whole bound is never kept.
	p2 := NewSlicePool[byte](4)
	p2.Put(make([]byte, 0, RetainBytes+1))
	if p2.Held() != 0 {
		t.Fatalf("pool kept an oversized buffer: %d bytes", p2.Held())
	}
	// Eviction at the count limit respects the bound too: swapping the
	// smallest slab for a larger one must still fit.
	p3 := NewSlicePool[byte](2)
	p3.Put(make([]byte, 0, 1<<20))
	p3.Put(make([]byte, 0, RetainBytes-(1<<20)))
	p3.Put(make([]byte, 0, 2<<20)) // would evict the 1 MiB slab and overflow
	if p3.Held() != RetainBytes {
		t.Fatalf("count-limit eviction broke the byte bound: %d bytes held", p3.Held())
	}
	for p.Held() > 0 {
		p.Get(1)
	}
	if _, misses := p.Stats(); misses != 0 {
		t.Fatalf("draining the held slabs missed %d times", misses)
	}
}

func TestSlicePoolGrowKeepsContents(t *testing.T) {
	p := NewSlicePool[int](4)
	b := p.Get(4)
	b = append(b, 1, 2, 3)
	b = p.Grow(b, 100)
	if cap(b) < 100 || len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("Grow lost contents: len %d cap %d %v", len(b), cap(b), b[:3])
	}
	// The outgrown slab went back to the pool.
	if c := p.Get(2); cap(c) < 4 || cap(c) >= 100 {
		t.Fatalf("outgrown slab not recycled: cap %d", cap(c))
	}
}

func TestArenaAppendIsolation(t *testing.T) {
	p := NewSlicePool[int](4)
	a := NewArena(p)
	x := a.Append([]int{1, 2, 3})
	y := a.Append([]int{4, 5})
	if x[2] != 3 || y[0] != 4 {
		t.Fatalf("arena copies wrong: %v %v", x, y)
	}
	// Appending to a handed-out slice must not bleed into its neighbour.
	x = append(x, 99)
	if y[0] != 4 {
		t.Fatalf("append to earlier allocation overwrote later one: %v", y)
	}
	if got := a.Append(nil); got != nil {
		t.Fatalf("Append(nil) = %v, want nil", got)
	}
	a.Release()
	if gets, _ := p.Stats(); gets == 0 {
		t.Fatal("arena never drew from pool")
	}
}

// TestArenaPacksChunk pins the bump-allocation contract: many small appends
// share one chunk instead of drawing a fresh chunk each (the capacity clamp
// on handed-out slices must not shrink the stored chunk's capacity).
func TestArenaPacksChunk(t *testing.T) {
	p := NewSlicePool[int](4)
	a := NewArena(p)
	for i := 0; i < 1000; i++ {
		a.Append([]int{i, i, i, i})
	}
	if gets, _ := p.Stats(); gets != 1 {
		t.Fatalf("1000 4-element appends drew %d chunks, want 1 (chunk capacity lost?)", gets)
	}
	a.Release()
}

func TestArenaLargeAllocation(t *testing.T) {
	p := NewSlicePool[byte](4)
	a := NewArena(p)
	big := make([]byte, 3*arenaChunk)
	big[0], big[len(big)-1] = 7, 9
	got := a.Append(big)
	if len(got) != len(big) || got[0] != 7 || got[len(got)-1] != 9 {
		t.Fatal("oversized append mangled")
	}
	a.Release()
}

// TestSlicePoolSteadyStateAllocs pins the pooling contract the analysis
// engine relies on: once warmed, a Get/Put cycle performs zero allocations.
func TestSlicePoolSteadyStateAllocs(t *testing.T) {
	p := NewSlicePool[int](4)
	p.Put(make([]int, 0, 4096))
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get(4096)
		p.Put(b)
	})
	if allocs > 0 {
		t.Fatalf("warm Get/Put allocates %.1f times per run, want 0", allocs)
	}
}

// TestSlicePoolConcurrent hammers one pool from many goroutines; run under
// -race this is the pool's data-race soak.
func TestSlicePoolConcurrent(t *testing.T) {
	p := NewSlicePool[int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := NewArena(p)
			for i := 0; i < 500; i++ {
				b := p.Get(64 + g)
				b = append(b, i, g)
				s := a.Append(b)
				if s[0] != i || s[1] != g {
					t.Errorf("goroutine-local data corrupted: %v", s)
					return
				}
				p.Put(b)
				if i%100 == 99 {
					a.Release()
				}
			}
			a.Release()
		}(g)
	}
	wg.Wait()
}
