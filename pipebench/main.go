// Command pipebench is the repository's end-to-end benchmark. It times the
// path a campaign takes from the first agent upload to the rendered figures
// — agent → collector/WAL → spool → tiermerge → analysis → report — end to
// end and layer by layer, in one process, and checks every output it times.
//
// It lives in its own module next to the code it measures and is built from
// source by run.sh, which keeps the build cache, the binary and all scratch
// files under .bench_build/ in the checkout:
//
//	bash pipebench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
//
// or, from this directory, go run . -workload pipeline -seed 1 (scratch then
// goes under os.TempDir()).
//
// # Flags
//
//	-workload NAME  the workload to run (below)
//	-seed N         feeds config.ForYear(year, scale, N); the same seed gives
//	                the same campaign, uploads and figures
//	-seconds S      measuring budget: rounds repeat until S seconds have
//	                passed, with at least three set-ups and one timed part
//	-trace 0|1      0 prints the end-to-end metrics; 1 records obs.Tracer
//	                spans in memory and prints the per-layer metrics
//	-trace-out FILE also write the spans as a Chrome trace (implies -trace 1)
//
// # Workloads
//
// Every workload simulates the 2015 campaign unless stated otherwise. The
// ingest workloads simulate its first 14 days, which still hold the iOS
// update release, at panel sizes (161 and 404 devices) large enough that the
// seed no longer swings the bytes uploaded. A round is one set-up followed by
// one timed part; the ingest workloads warm up during set-up by replaying one
// device into a throwaway collector, because a collector is a long-running
// server. The report workloads do not warm up, because users pay process
// start-up on every regeneration.
//
//   - pipeline (scale 0.1, 14 days): every layer in deployment order. Each
//     device's session uploads hourly batches of 6 samples to a 2-replica
//     WAL-backed collector tier with rotating spools; the tier drains;
//     tiermerge.MergeDirs feeds analysis.NewShards,
//     core.AnalyzeCampaignShards analyzes in exact mode and report.Write
//     renders. Per-batch costs (fsync, round trip) and the read side both
//     matter. Checks: recorded = uploaded = accepted = spooled = tiermerge
//     unique = simulated with no duplicates, and the CampaignRun DeepEquals
//     core.AnalyzeCampaign over the simulated samples.
//   - ingest-daily (scale 0.25, 14 days): the same ingest layers used
//     differently. Each device-day is one batch of 144 samples uploaded by a
//     fresh agent session that resumes through HelloAck.LastBatch, into one
//     collector. Bytes per batch and session set-up dominate and fsyncs are
//     amortised, so a fix that only coalesces fsyncs moves pipeline and
//     leaves this flat. Checks: the ledger balances and every device's
//     LastBatch equals the batches it sent.
//   - report-full (all three years, scale 0.25): make experiments-full at
//     the make experiments scale — core.RunStudy with TraceDir and
//     AnalysisWorkers set (the streaming driver; the three years run
//     concurrently, each simulated sequentially), then report.Write. No
//     ingest: simulation, decode, prepass and the streaming fan-out
//     dominate. Checks: each year's Overview.Total equals the devices in
//     its spooled trace (a panel member whose late join falls after its
//     dropout never reports) and at most its panel, the analysis counted
//     every sample, trace.DecodeCount rises by one decode per sample and
//     analysis pass, and at scale 1.0 with seed 1 the report is
//     byte-identical to the committed EXPERIMENTS.md, read from the working
//     directory (a self-test runs this).
//   - sketch-full (scale 0.5): set-up writes a campaign trace; timed is the
//     sequential core.AnalyzeCampaign in SketchMode over analysis.FileSource,
//     then report.Write — the bounded-memory path. Checks: SketchCard's
//     exact counters equal the counts tallied while writing the trace and
//     its HyperLogLog estimates lie within 5% of the exact distinct counts.
//
// Load rules: at most GOMAXPROCS (default: the CPU count) agent connections
// are open at once, in a closed loop — each connection slot replays one
// device, then takes the next device in ID order. The WAL fsync policy is
// batch (group commit).
//
// # Output
//
// The run prints a "meta" line (machine, Go version, workload, seed,
// scratch filesystem, fsync policy), one "metric NAME VALUE UNIT" line per
// metric it computed, "detail" lines for latency percentiles with their
// sample count n and the number of samples beyond the percentile, and, as
// its last line, the JSON result {"correct", "attempted", "failed",
// "metrics"}. An operation is an uploaded batch or a timed round's output
// check; a failed flush or a failed check counts as failed and makes the run
// exit 1. A latency percentile with fewer than ten samples beyond it also
// fails the run.
//
// End-to-end metrics (the -trace 0 result), each the median over the run's
// rounds, with the regression bound BENCHMARK.json fixes:
//
//	setup_s        s    set-up time of one round
//	wall_s         s    the timed part of one round
//	peak_heap_mib  MiB  largest heap-objects sample (runtime/metrics), taken
//	                    every 10 ms
//
// Per-layer metrics (the -trace 1 result). Shares ("frac") are of the summed
// timed parts; counts are per round; a layer a workload bypasses reads 0.
// Each line names the end-to-end metric the layer should move and where:
//
//	phase.{ingest,drain,tiermerge,analyze,render}_frac  wall_s (pipeline has all five;
//	                          ingest-daily ingest and drain; report workloads analyze and render)
//	ingest.samples_per_sec    1/s    wall_s on pipeline, ingest-daily
//	agent.sessions            count  wall_s on ingest-daily (session set-up)
//	agent.flush_wait_frac     frac   wall_s on pipeline, ingest-daily
//	agent.record_busy_frac    frac   wall_s on pipeline, ingest-daily
//	collector.frames          count  wall_s on ingest workloads
//	collector.bytes_per_sample B     wall_s on ingest-daily (decode-heavy)
//	collector.sink_busy_frac  frac   wall_s on ingest-daily
//	wal.appends               count  wall_s on pipeline
//	wal.fsyncs_per_append     ratio  wall_s on pipeline; flat on ingest-daily
//	wal.bytes_per_sample      B      wall_s on ingest workloads
//	spool.bytes_per_sample    B      wall_s on ingest workloads
//	tiermerge.read, tiermerge.unique  count  wall_s on pipeline
//	tiermerge.samples_per_sec 1/s    wall_s on pipeline
//	trace.decodes_per_sample  ratio  wall_s everywhere; a count that repeats exactly
//	                          (the ingest workloads' replay decodes each sample once)
//	analysis.samples_per_sec  1/s    wall_s, peak_heap_mib on the report workloads
//	analysis.prep_frac, analysis.pass2_frac, analysis.merge_frac  frac (span self time)
//	analysis.shard_skew       ratio  slowest pass-2 shard over the mean (pipeline)
//	core.simulate_frac        frac   wall_s on report-full
//	report.bytes              B      none: predicted flat everywhere
//	runtime.cpu_s, runtime.cpu_util, runtime.alloc_bytes_per_sample,
//	runtime.gc_cycles, runtime.gc_pause_ms, runtime.peak_rss_mib
//	                                 peak_heap_mib, wall_s everywhere
//	bench.span_coverage_frac  frac   share of wall_s the phase spans cover (≥ 0.95)
//
// The span-derived metrics come from the traced run only: the phase spans
// (bench:ingest, bench:drain, tiermerge:merge, core:analyze, report:write),
// agent:session spans on one track per connection slot, and the core and
// analysis spans already in the program nest inside them. A layer's self
// time is the time its spans cover minus the time its child spans cover.
// Tracing overhead is the traced run's wall_s over the untraced median.
//
// # Comparing two commits
//
// Build each commit's checkout, then alternate runs of the two with the same
// -seconds and a fresh seed per pair, at least ten pairs per workload:
//
//	for seed in $(seq 1 10); do
//	  (cd old && bash pipebench/run.sh --workload pipeline --seed $seed --seconds 20 --trace 0 | tail -1)
//	  (cd new && bash pipebench/run.sh --workload pipeline --seed $seed --seconds 20 --trace 0 | tail -1)
//	done
//
// and compare each metric's median and quartiles between the two sets; a
// difference within the metric's bound is not a change.
//
// cmd/loadgen's synthetic mode (make ingest-smoke, the INGEST_7.json anchor)
// is separate and unchanged.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smartusage/internal/analysis"
	"smartusage/internal/collector"
	"smartusage/internal/obs"
)

// minSetups is how many times a run sets up, so setup_s is a median.
const minSetups = 3

// options are one invocation's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string

	// scale overrides the workload's campaign scale (tests only; 0 keeps it).
	scale float64
	// wrapSink, when set, interposes on every collector's spool sink (tests
	// only: fault injection).
	wrapSink func(collector.Sink) collector.Sink
}

func main() {
	var (
		o     options
		trace int
	)
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "campaign seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the spans to this file as a Chrome trace (implies -trace 1)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1 || o.traceOut != ""
	os.Exit(execute(o, os.Stdout, os.Stderr))
}

// execute runs one invocation and prints its report. It returns the exit
// code: 0 only when the run finished and every check passed.
func execute(o options, stdout, stderr io.Writer) int {
	rep, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout, o.trace); err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "pipebench: FAIL %s\n", f)
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// bench runs the workload's rounds inside one scratch directory, which it
// removes on every return path.
func bench(o options, logw io.Writer) (*runReport, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	scratch, err := os.MkdirTemp("", "pipebench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: o.seed, scale: w.scale, days: w.days, slots: runtime.GOMAXPROCS(0), wrapSink: o.wrapSink}
	if o.scale > 0 {
		e.scale = o.scale
	}
	var spans spanBuffer
	if o.trace {
		e.tracer = obs.NewTracer(&spans)
		analysis.SetTracer(e.tracer)
		defer analysis.SetTracer(nil)
	}
	m := &meter{tracer: e.tracer, slots: e.slots, phase: map[string]time.Duration{}}
	rep := &runReport{meta: runMeta(o, e, scratch)}

	start := time.Now()
	for r := 0; r < minSetups || time.Since(start).Seconds() < o.seconds; r++ {
		dir := filepath.Join(scratch, fmt.Sprintf("round-%d", r))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		sp := e.tracer.Start("bench:setup").Arg("parent", "bench")
		t0 := time.Now()
		rd, err := w.setup(e, dir)
		m.setups = append(m.setups, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		line := fmt.Sprintf("pipebench: %s round %d: set-up %.3fs", w.name, r, m.setups[r])
		if r == 0 || time.Since(start).Seconds() < o.seconds {
			err = m.timed(rd)
			line += fmt.Sprintf(", timed %.3fs", m.walls[len(m.walls)-1])
		}
		err = errors.Join(err, rd.close(), os.RemoveAll(dir))
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		fmt.Fprintln(logw, line)
		if len(m.failures) > 0 {
			break
		}
	}
	m.checkTails()

	if err := e.tracer.Close(); err != nil {
		return nil, err
	}
	var sm spanMetrics
	if o.trace {
		if sm, err = spans.metrics(); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := os.WriteFile(o.traceOut, spans.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
	}
	rep.metrics = m.metrics(sm, o.trace)
	rep.details = m.details()
	rep.attempted, rep.failed, rep.failures = m.attempted, m.failed, m.failures
	rep.meta.Rounds, rep.meta.TimedRounds = len(m.setups), len(m.walls)
	return rep, nil
}

// runReport is everything one invocation prints.
type runReport struct {
	meta      meta
	metrics   map[string]float64
	details   []string
	attempted int
	failed    int
	failures  []string
}

func (r *runReport) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the meta line, every computed metric, the latency details
// and, last, the result carrying the metric set the mode declares.
func (r *runReport) print(w io.Writer, traced bool) error {
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", meta)
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "metric %s %.6g %s\n", d.name, v, d.unit)
	}
	for _, d := range set {
		res.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	for _, d := range r.details {
		fmt.Fprintf(w, "detail %s\n", d)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// meta records the machine and the run, so a number can be traced to where
// it was measured.
type meta struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Days        int     `json:"days"` // campaign days simulated; 0 is the whole campaign
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Slots       int     `json:"connection_slots"`
	ScratchFS   string  `json:"scratch_fs"`
	Fsync       string  `json:"fsync"`
	Rounds      int     `json:"rounds"`
	TimedRounds int     `json:"timed_rounds"`
}

func runMeta(o options, e *env, scratch string) meta {
	return meta{
		Workload:   o.workload,
		Seed:       o.seed,
		Scale:      e.scale,
		Days:       e.days,
		Seconds:    o.seconds,
		Traced:     o.trace,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Slots:      e.slots,
		ScratchFS:  fsType(scratch),
		Fsync:      fsyncPolicy.String(),
	}
}
