package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics covers the scalar instruments' semantics.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

// TestInstrumentInterning verifies that the same (kind, name, labels) yields
// the same instrument regardless of label order, and that distinct label
// sets yield distinct series.
func TestInstrumentInterning(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", L("a", "1"), L("b", "2"))
	if a != b {
		t.Error("same name+labels in different order interned to different counters")
	}
	c := r.Counter("x_total", L("a", "1"))
	if a == c {
		t.Error("different label sets interned to the same counter")
	}
}

// TestKindConflictPanics: one key registered as two kinds is a programming
// error caught loudly.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter's key as a gauge did not panic")
		}
	}()
	r.Gauge("dual")
}

// TestHistogramBuckets pins the le-bucketing rule: a value equal to an upper
// bound lands in that bucket (Prometheus le semantics), values past the last
// bound land in +Inf.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	want := []int64{2, 2, 1, 1} // (<=1)=0.5,1  (<=2)=1.5,2  (<=4)=4  +Inf=100
	for i, n := range want {
		if hv.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, hv.Counts[i], n)
		}
	}
	if hv.Count != 6 {
		t.Errorf("count = %d, want 6", hv.Count)
	}
	if hv.Sum != 0.5+1+1.5+2+4+100 {
		t.Errorf("sum = %v", hv.Sum)
	}
}

// TestNilSafety: every method on nil instruments and a nil registry is a
// no-op, the contract that lets call sites skip branches entirely.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported non-zero values")
	}
	r.SetHelp("c_total", "ignored")
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("empty snapshot rendered %q, err %v", buf.String(), err)
	}
}

// TestNilFastPathDoesNotAllocate asserts the disabled path is allocation
// free — the instrumentation can stay in hot loops unconditionally.
func TestNilFastPathDoesNotAllocate(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total")
	h := r.Histogram("h", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Errorf("nil fast path allocated %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentHammer drives every instrument kind from many goroutines;
// run under -race this is the package's data-race proof, and the totals
// prove no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Interning races: every goroutine asks for the same series.
			c := r.Counter("hammer_total", L("k", "v"))
			g := r.Gauge("hammer_gauge")
			h := r.Histogram("hammer_seconds", nil)
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001 * float64(j%10))
				if j%100 == 0 {
					_ = r.Snapshot() // snapshots race against writers
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("hammer_total", L("k", "v")).Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("hammer_gauge").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("hammer_seconds", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// buildGoldenRegistry assembles one instrument of each kind with labels and
// help text, in deliberately unsorted registration order.
func buildGoldenRegistry() *Registry {
	r := NewRegistry()
	r.SetHelp("zz_last_total", "Registered first, emitted last.")
	r.Counter("zz_last_total").Add(9)
	r.Counter("collector_frames_total", L("device", "00000000000000ff")).Add(12)
	r.Counter("collector_frames_total", L("device", "0000000000000001")).Add(7)
	r.SetHelp("collector_frames_total", "Batch frames received.")
	r.Gauge("collector_active_conns").Set(3)
	h := r.Histogram("sink_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2.5)
	r.Counter("escaped_total", L("path", `C:\dir`), L("note", "line\nbreak \"q\"")).Inc()
	return r
}

const goldenPrometheus = `# HELP collector_frames_total Batch frames received.
# TYPE collector_frames_total counter
collector_frames_total{device="0000000000000001"} 7
collector_frames_total{device="00000000000000ff"} 12
# TYPE escaped_total counter
escaped_total{note="line\nbreak \"q\"",path="C:\\dir"} 1
# HELP zz_last_total Registered first, emitted last.
# TYPE zz_last_total counter
zz_last_total 9
# TYPE collector_active_conns gauge
collector_active_conns 3
# TYPE sink_seconds histogram
sink_seconds_bucket{le="0.001"} 1
sink_seconds_bucket{le="0.01"} 1
sink_seconds_bucket{le="0.1"} 2
sink_seconds_bucket{le="+Inf"} 3
sink_seconds_sum 2.5505
sink_seconds_count 3
`

// TestGoldenPrometheus pins the exact text exposition and proves it is
// byte-identical across snapshots of identical state — the determinism
// contract smuvet enforces structurally and this test enforces end to end.
func TestGoldenPrometheus(t *testing.T) {
	r := buildGoldenRegistry()
	var a, b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two snapshots of identical state rendered differently")
	}
	if a.String() != goldenPrometheus {
		t.Errorf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", a.String(), goldenPrometheus)
	}
}

// TestGoldenJSON pins the JSON encoding and its byte stability.
func TestGoldenJSON(t *testing.T) {
	r := buildGoldenRegistry()
	a, err := r.Snapshot().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Snapshot().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two JSON snapshots of identical state differ")
	}
	for _, want := range []string{
		`"name":"collector_frames_total","labels":"{device=\"0000000000000001\"}","value":7`,
		`"name":"collector_active_conns","value":3`,
		`"bounds":[0.001,0.01,0.1],"counts":[1,0,1,1],"sum":2.5505,"count":3`,
	} {
		if !strings.Contains(string(a), want) {
			t.Errorf("JSON missing %s\nin: %s", want, a)
		}
	}
}

// BenchmarkCounterNil and friends anchor the perf trajectory for the
// disabled path (b.ReportAllocs proves zero allocation per op).
func BenchmarkCounterNil(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterHot(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkSnapshotPrometheus(b *testing.B) {
	r := buildGoldenRegistry()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		r.Snapshot().WritePrometheus(&buf)
	}
}
