package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"smartusage/internal/obs"
	"smartusage/internal/trace"
)

// metricDef declares one metric as BENCHMARK.json does; bound is set for
// end-to-end metrics only.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs. Each is a median over the run's rounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.25},
}

// phases are the timed part's stages, in deployment order; spanOf names the
// span each is recorded under.
var (
	phases = []string{"ingest", "drain", "tiermerge", "analyze", "render"}
	spanOf = map[string]string{
		"ingest":    "bench:ingest",
		"drain":     "bench:drain",
		"tiermerge": "tiermerge:merge",
		"analyze":   "core:analyze",
		"render":    "report:write",
	}
)

// perLayer are the metrics of single layers, printed by traced runs.
var perLayer = []metricDef{
	{name: "phase.ingest_frac", unit: "frac", better: "lower"},
	{name: "phase.drain_frac", unit: "frac", better: "lower"},
	{name: "phase.tiermerge_frac", unit: "frac", better: "lower"},
	{name: "phase.analyze_frac", unit: "frac", better: "lower"},
	{name: "phase.render_frac", unit: "frac", better: "lower"},
	{name: "ingest.samples_per_sec", unit: "1/s", better: "higher"},
	{name: "agent.sessions", unit: "count", better: "lower"},
	{name: "agent.flush_wait_frac", unit: "frac", better: "lower"},
	{name: "agent.record_busy_frac", unit: "frac", better: "lower"},
	{name: "collector.frames", unit: "count", better: "lower"},
	{name: "collector.bytes_per_sample", unit: "B", better: "lower"},
	{name: "collector.sink_busy_frac", unit: "frac", better: "lower"},
	{name: "wal.appends", unit: "count", better: "lower"},
	{name: "wal.fsyncs_per_append", unit: "ratio", better: "lower"},
	{name: "wal.bytes_per_sample", unit: "B", better: "lower"},
	{name: "spool.bytes_per_sample", unit: "B", better: "lower"},
	{name: "tiermerge.read", unit: "count", better: "lower"},
	{name: "tiermerge.unique", unit: "count", better: "lower"},
	{name: "tiermerge.samples_per_sec", unit: "1/s", better: "higher"},
	{name: "trace.decodes_per_sample", unit: "ratio", better: "lower"},
	{name: "analysis.samples_per_sec", unit: "1/s", better: "higher"},
	{name: "analysis.prep_frac", unit: "frac", better: "lower"},
	{name: "analysis.pass2_frac", unit: "frac", better: "lower"},
	{name: "analysis.merge_frac", unit: "frac", better: "lower"},
	{name: "analysis.shard_skew", unit: "ratio", better: "lower"},
	{name: "core.simulate_frac", unit: "frac", better: "lower"},
	{name: "report.bytes", unit: "B", better: "lower"},
	{name: "runtime.cpu_s", unit: "s", better: "lower"},
	{name: "runtime.cpu_util", unit: "ratio", better: "higher"},
	{name: "runtime.alloc_bytes_per_sample", unit: "B", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "bench.span_coverage_frac", unit: "frac", better: "higher"},
}

// meter accumulates one run's measurements over its timed rounds.
type meter struct {
	tracer *obs.Tracer
	slots  int

	setups, walls, peaks []float64 // per round: s, s, MiB

	phase                 map[string]time.Duration
	acks, first           []time.Duration // flush→ack per batch; per session's first
	recordBusy, flushWait time.Duration
	sessions              int

	samples, uploaded, analyzed, reportBytes int64
	frames, batchBytes, spooled, spoolBytes  int64
	walAppends, walFsyncs, walBytes          int64
	mergeRead, mergeUnique                   int64
	sinkSeconds                              float64

	decodes         uint64
	cpu             float64
	alloc, gcPause  uint64
	gcCycles        uint32
	attempted       int
	failed          int
	failures        []string
	roundHasFailure bool
}

// timed runs one round's timed part, measuring it from outside, then
// verifies its outputs. A forced collection and a disk flush first make
// every round start from the same heap and an idle disk.
func (m *meter) timed(rd round) error {
	runtime.GC()
	syncDisks()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, dec0 := cpuSeconds(), trace.DecodeCount()
	m.roundHasFailure = false
	hp := startHeapPeak()
	t0 := time.Now()
	err := rd.run(m)
	wall := time.Since(t0)
	peak := hp.end()
	m.cpu += cpuSeconds() - cpu0
	m.decodes += trace.DecodeCount() - dec0
	runtime.ReadMemStats(&ms1)
	m.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles += ms1.NumGC - ms0.NumGC
	m.gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs

	m.walls = append(m.walls, wall.Seconds())
	m.peaks = append(m.peaks, float64(peak)/(1<<20))
	if err == nil {
		err = rd.verify(m)
	}
	m.attempted++
	if m.roundHasFailure {
		m.failed++
	}
	return err
}

// during runs fn as the named phase: timed, and wrapped in its span.
func (m *meter) during(name string, fn func() error) error {
	sp := m.tracer.Start(spanOf[name]).Arg("parent", "bench")
	t0 := time.Now()
	err := fn()
	m.phase[name] += time.Since(t0)
	sp.End()
	return err
}

// check records a failed output check of the current round, and returns ok.
func (m *meter) check(ok bool, format string, args ...any) bool {
	if !ok {
		m.roundHasFailure = true
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// checkTails fails the run when a latency percentile it reports rests on
// fewer than tailBeyond samples beyond it.
func (m *meter) checkTails() {
	for _, l := range m.latencies() {
		if l.n > 0 && l.beyond < tailBeyond {
			m.failures = append(m.failures, fmt.Sprintf("%s p%g has %d of %d samples beyond it, want >= %d",
				l.name, float64(l.perMille)/10, l.beyond, l.n, tailBeyond))
		}
	}
}

// latency is one reported percentile.
type latency struct {
	name      string
	perMille  int
	value     time.Duration
	n, beyond int
}

func (m *meter) latencies() []latency {
	var out []latency
	for _, s := range []struct {
		name     string
		d        []time.Duration
		perMille []int
	}{
		{"ack_ms", m.acks, []int{500, 990}},
		{"first_flush_ms", m.first, []int{500}},
	} {
		sorted := append([]time.Duration(nil), s.d...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, p := range s.perMille {
			v, beyond := pct(sorted, p)
			out = append(out, latency{s.name, p, v, len(sorted), beyond})
		}
	}
	return out
}

// details are the human-readable lines beside the metrics: latency
// percentiles with their sample counts, and the time from the last ack to
// the end of the timed part.
func (m *meter) details() []string {
	var out []string
	for _, l := range m.latencies() {
		if l.n > 0 {
			out = append(out, fmt.Sprintf("%s p%g=%.4f n=%d beyond=%d",
				l.name, float64(l.perMille)/10, float64(l.value.Nanoseconds())/1e6, l.n, l.beyond))
		}
	}
	if ingest := m.phase["ingest"]; ingest > 0 {
		after := sum(m.walls) - ingest.Seconds()
		out = append(out, fmt.Sprintf("after_last_ack_s=%.4f per round", after/float64(len(m.walls))))
	}
	return out
}

// metrics derives every metric the run measured; the span-derived ones only
// when traced. Shares are of the summed timed parts, counts are per round.
func (m *meter) metrics(sm spanMetrics, traced bool) map[string]float64 {
	rounds := float64(len(m.walls))
	wall := sum(m.walls)
	ingest := m.phase["ingest"].Seconds()
	v := map[string]float64{
		"setup_s":       median(m.setups),
		"wall_s":        median(m.walls),
		"peak_heap_mib": median(m.peaks),

		"ingest.samples_per_sec":         ratio(float64(m.uploaded), ingest),
		"agent.sessions":                 ratio(float64(m.sessions), rounds),
		"agent.flush_wait_frac":          ratio(m.flushWait.Seconds(), float64(m.slots)*ingest),
		"agent.record_busy_frac":         ratio(m.recordBusy.Seconds(), float64(m.slots)*ingest),
		"collector.frames":               ratio(float64(m.frames), rounds),
		"collector.bytes_per_sample":     ratio(float64(m.batchBytes), float64(m.uploaded)),
		"collector.sink_busy_frac":       ratio(m.sinkSeconds, ingest),
		"wal.appends":                    ratio(float64(m.walAppends), rounds),
		"wal.fsyncs_per_append":          ratio(float64(m.walFsyncs), float64(m.walAppends)),
		"wal.bytes_per_sample":           ratio(float64(m.walBytes), float64(m.uploaded)),
		"spool.bytes_per_sample":         ratio(float64(m.spoolBytes), float64(m.spooled)),
		"tiermerge.read":                 ratio(float64(m.mergeRead), rounds),
		"tiermerge.unique":               ratio(float64(m.mergeUnique), rounds),
		"tiermerge.samples_per_sec":      ratio(float64(m.mergeRead), m.phase["tiermerge"].Seconds()),
		"trace.decodes_per_sample":       ratio(float64(m.decodes), float64(m.samples)),
		"analysis.samples_per_sec":       ratio(float64(m.analyzed), m.phase["analyze"].Seconds()),
		"report.bytes":                   ratio(float64(m.reportBytes), rounds),
		"runtime.cpu_s":                  ratio(m.cpu, rounds),
		"runtime.cpu_util":               ratio(m.cpu, wall*float64(runtime.GOMAXPROCS(0))),
		"runtime.alloc_bytes_per_sample": ratio(float64(m.alloc), float64(m.samples)),
		"runtime.gc_cycles":              ratio(float64(m.gcCycles), rounds),
		"runtime.gc_pause_ms":            ratio(float64(m.gcPause)/1e6, rounds),
		"runtime.peak_rss_mib":           float64(peakRSS()) / (1 << 20),
	}
	for _, p := range phases {
		v["phase."+p+"_frac"] = ratio(m.phase[p].Seconds(), wall)
	}
	if traced {
		v["analysis.prep_frac"] = ratio(sm.prep, wall)
		v["analysis.pass2_frac"] = ratio(sm.pass2, wall)
		v["analysis.merge_frac"] = ratio(sm.merge, wall)
		v["analysis.shard_skew"] = sm.skew
		v["core.simulate_frac"] = ratio(sm.simulate, wall)
		v["bench.span_coverage_frac"] = ratio(sm.covered, wall)
	}
	return v
}

// pct is the nearest-rank percentile of sorted at perMille/1000 (p99.9 is
// 999), and how many samples lie beyond that rank. An empty slice has
// neither.
func pct(sorted []time.Duration, perMille int) (value time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := (n*perMille + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the layer did not run (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapPeak samples the live heap every 10 ms until end.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return h
}

// end stops the sampler and returns the largest sample in bytes.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// spanBuffer holds a run's spans in memory in the obs.Tracer format.
type spanBuffer struct{ bytes.Buffer }

// spanMetrics are the per-layer times (seconds) read off a run's spans,
// counted only inside the timed phases.
type spanMetrics struct {
	covered, prep, pass2, merge, simulate float64
	skew                                  float64
}

type spanEvent struct {
	Name string `json:"name"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
}

// metrics parses the closed tracer's output and computes each layer's
// self time: the time its spans cover minus the time its child spans cover.
func (b *spanBuffer) metrics() (spanMetrics, error) {
	var evs []spanEvent
	if err := json.Unmarshal(b.Bytes(), &evs); err != nil {
		return spanMetrics{}, fmt.Errorf("parse spans: %w", err)
	}
	isPhase := map[string]bool{}
	for _, n := range spanOf {
		isPhase[n] = true
	}
	var timed, prep, pass2, merge, simulate []interval
	var runs, shards []interval
	for _, e := range evs {
		iv := interval{e.TS, e.TS + e.Dur}
		switch {
		case isPhase[e.Name]:
			timed = append(timed, iv)
		case strings.HasPrefix(e.Name, "analysis:prep"):
			prep = append(prep, iv)
		case e.Name == "analysis:merge":
			merge = append(merge, iv)
		case e.Name == "analysis:run" || strings.HasPrefix(e.Name, "analysis:run-") || e.Name == "analysis:shard":
			pass2 = append(pass2, iv)
			if e.Name == "analysis:run-shards" {
				runs = append(runs, iv)
			} else if e.Name == "analysis:shard" {
				shards = append(shards, iv)
			}
		case e.Name == "core:simulate":
			simulate = append(simulate, iv)
		}
	}
	timed = merged(timed)
	in := func(iv []interval) []interval { return intersect(merged(iv), timed) }
	pass2T, mergeT := in(pass2), in(merge)
	sec := func(us int64) float64 { return float64(us) / 1e6 }
	return spanMetrics{
		covered:  sec(total(timed)),
		prep:     sec(total(in(prep))),
		pass2:    sec(total(pass2T) - total(intersect(pass2T, mergeT))),
		merge:    sec(total(mergeT)),
		simulate: sec(total(in(simulate))),
		skew:     shardSkew(runs, shards),
	}, nil
}

// shardSkew is the mean, over sharded second passes, of the slowest shard's
// duration over the mean shard duration; 0 when no pass was sharded.
func shardSkew(runs, shards []interval) float64 {
	total, n := 0.0, 0
	for _, r := range runs {
		var longest, sum int64
		k := 0
		for _, s := range shards {
			if s.lo >= r.lo && s.hi <= r.hi {
				sum += s.hi - s.lo
				longest = max(longest, s.hi-s.lo)
				k++
			}
		}
		if k > 0 && sum > 0 {
			total += float64(longest) * float64(k) / float64(sum)
			n++
		}
	}
	return ratio(total, float64(n))
}

// interval is a span's extent in microseconds.
type interval struct{ lo, hi int64 }

// merged sorts intervals and fuses the overlapping ones.
func merged(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, x := range s {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

// intersect returns the overlap of two merged interval lists.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

func total(iv []interval) int64 {
	var t int64
	for _, x := range iv {
		t += x.hi - x.lo
	}
	return t
}
