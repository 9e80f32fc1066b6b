package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/collector"
	"smartusage/internal/trace"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), registry %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}

func TestMetricsDeclared(t *testing.T) {
	b := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	declare := func(d metricDef) {
		if !name.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric %q: bad or repeated name", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the code %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		declare(d)
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound == nil || *got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 || d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %g outside (0, 0.25] or above setup_s's", d.name, d.bound)
		}
	}
	if endToEnd[0].name != "setup_s" {
		t.Errorf("setup_s must be the first end-to-end metric")
	}
	for i, d := range perLayer {
		declare(d)
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
}

func TestPct(t *testing.T) {
	if v, beyond := pct(nil, 500); v != 0 || beyond != 0 {
		t.Errorf("empty: %v beyond %d", v, beyond)
	}
	one := []time.Duration{7}
	for _, p := range []int{1, 500, 990, 999, 1000} {
		if v, beyond := pct(one, p); v != 7 || beyond != 0 {
			t.Errorf("n=1 p%d: %v beyond %d", p, v, beyond)
		}
	}
	thousand := make([]time.Duration, 1000)
	for i := range thousand {
		thousand[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		perMille int
		v        time.Duration
		beyond   int
	}{{500, 500, 500}, {990, 990, 10}, {999, 999, 1}, {1000, 1000, 0}} {
		if v, beyond := pct(thousand, c.perMille); v != c.v || beyond != c.beyond {
			t.Errorf("n=1000 p%g: %v beyond %d, want %v beyond %d", float64(c.perMille)/10, v, beyond, c.v, c.beyond)
		}
	}
}

func TestTooFewSamplesBeyondFails(t *testing.T) {
	m := &meter{acks: make([]time.Duration, 500), first: make([]time.Duration, 500)}
	m.checkTails() // p99 of 500 has 5 beyond it
	if len(m.failures) != 1 || !strings.Contains(m.failures[0], "ack_ms p99") {
		t.Fatalf("failures %q, want one for ack_ms p99", m.failures)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	var b spanBuffer
	b.WriteString(`[
{"name":"core:analyze","ph":"X","pid":1,"tid":0,"ts":0,"dur":100},
{"name":"analysis:run-shards","ph":"X","pid":1,"tid":0,"ts":10,"dur":50},
{"name":"analysis:shard","ph":"X","pid":1,"tid":1,"ts":10,"dur":40},
{"name":"analysis:shard","ph":"X","pid":1,"tid":2,"ts":10,"dur":30},
{"name":"analysis:merge","ph":"X","pid":1,"tid":0,"ts":50,"dur":10},
{"name":"analysis:prep-shards","ph":"X","pid":1,"tid":0,"ts":60,"dur":30},
{"name":"analysis:prep","ph":"X","pid":1,"tid":0,"ts":200,"dur":50},
{"name":"core:simulate","ph":"X","pid":1,"tid":0,"ts":300,"dur":10},
{}]`)
	got, err := b.metrics()
	if err != nil {
		t.Fatal(err)
	}
	// Spans outside the timed phases (set-up work) do not count.
	want := spanMetrics{covered: 100e-6, prep: 30e-6, pass2: 40e-6, merge: 10e-6, skew: 40 / 35.0}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// runOutput runs one invocation and splits what it printed.
func runOutput(t *testing.T, o options) (code int, metaLine map[string]any, res result) {
	t.Helper()
	var out bytes.Buffer
	code = execute(o, &out, io.Discard)
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if m, ok := strings.CutPrefix(last, "meta "); ok {
			if err := json.Unmarshal([]byte(m), &metaLine); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return code, metaLine, res
}

func TestMetaFields(t *testing.T) {
	_, meta, _ := runOutput(t, options{workload: "sketch-full", seed: 3, scale: 0.01})
	for _, k := range []string{"workload", "seed", "go_version", "goos", "goarch", "num_cpu", "gomaxprocs", "scratch_fs", "fsync"} {
		if v, ok := meta[k]; !ok || v == "" || v == 0.0 {
			t.Errorf("meta %s = %v", k, v)
		}
	}
	if meta["workload"] != "sketch-full" || meta["seed"] != 3.0 || meta["fsync"] != "batch" {
		t.Errorf("meta %v", meta)
	}
}

// dropOne returns a sink wrapper that loses the first sample it sees.
func dropOne() func(collector.Sink) collector.Sink {
	var dropped atomic.Bool
	return func(next collector.Sink) collector.Sink {
		return func(s *trace.Sample) error {
			if dropped.CompareAndSwap(false, true) {
				return nil
			}
			return next(s)
		}
	}
}

func TestDroppedSampleFailsPipeline(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	code, _, res := runOutput(t, options{workload: "pipeline", seed: 2, scale: 0.02, wrapSink: dropOne()})
	if code == 0 || res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Fatalf("exit %d, result %+v: want a failed run", code, res)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("failed run left scratch behind: %v", left)
	}
}
