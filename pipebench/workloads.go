package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"smartusage/internal/analysis"
	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/obs"
	"smartusage/internal/report"
	"smartusage/internal/sim"
	"smartusage/internal/tiermerge"
	"smartusage/internal/trace"
)

// year is the campaign every workload but report-full simulates.
const year = 2015

// env is what every round of one run shares.
type env struct {
	seed     int64
	scale    float64
	days     int
	slots    int // agent connections and analysis workers
	tracer   *obs.Tracer
	wrapSink func(collector.Sink) collector.Sink
}

// round is one set-up instance of a workload.
type round interface {
	// run executes the timed part once, recording its phases in m.
	run(m *meter) error
	// verify checks what run produced and adds its counters to m, untimed.
	// An error means the round could not be checked; a wrong output is a
	// failed check, not an error.
	verify(m *meter) error
	// close releases what set-up acquired.
	close() error
}

// workload is one named benchmark input: its campaign scale, how many days
// of the campaign it simulates (0: all), and the set-up that builds a round
// in a fresh directory.
type workload struct {
	name, why string
	scale     float64
	days      int
	setup     func(e *env, dir string) (round, error)
}

// workloads is the registry; BENCHMARK.json lists the same names and reasons.
// The ingest workloads keep the panel sizes at which a seed's AP deployment
// and handset mix stop swinging the bytes uploaded (161 and 404 devices) and
// shorten the campaign to its first two weeks, which still hold the 2015 OS
// update. Every workload is sized so a run holds several timed rounds: on a
// shared machine a single long round is at the mercy of whatever its
// neighbours do meanwhile, and the median of several is not.
var workloads = []workload{
	{"pipeline", "every layer in deployment order: hourly batches into a 2-replica WAL tier, tiermerge, sharded exact analysis, report; per-batch fsync and round trips matter",
		0.1, 14, setupPipeline},
	{"ingest-daily", "the ingest layers used differently: one 144-sample batch per device-day on a fresh session, so bytes per batch and session set-up dominate and fsyncs amortise",
		0.25, 14, setupIngestDaily},
	{"report-full", "regenerating the paper: all three campaigns through the streaming TraceDir driver, then the report; simulation, decode and fan-out dominate, no ingest",
		0.25, 0, setupReportFull},
	{"sketch-full", "the bounded-memory path: sequential SketchMode analysis of an 808-device campaign trace over FileSource, then the report; no ingest",
		0.5, 0, setupSketchFull},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// Every simulation here runs sequentially: sim.RunConcurrent's workers share
// the AP deployment's random source and BSSID counter when users open shop
// APs, so its output is not a function of the seed alone.

// campaign is one simulated campaign, kept device by device in ID order.
type campaign struct {
	cfg     config.Campaign
	sm      *sim.Simulator
	devices []device
	samples int
}

// simulate runs the run's campaign and cuts each device's samples into
// batches: split reports whether the sample taken at t starts a new batch
// after the current one's n samples, the last taken at prev.
func simulate(e *env, split func(n int, prev, t int64) bool) (*campaign, error) {
	cfg, err := config.ForYear(year, e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	if e.days > 0 {
		cfg.Days = e.days
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &campaign{cfg: cfg, sm: sm}
	var prev int64
	err = sm.Run(func(s *trace.Sample) error {
		if n := len(c.devices); n == 0 || c.devices[n-1].id != s.Device {
			c.devices = append(c.devices, device{id: s.Device, os: s.OS})
		}
		d := &c.devices[len(c.devices)-1]
		if k := len(d.batches); k == 0 || split(d.batches[k-1], prev, s.Time) {
			d.batches = append(d.batches, 0)
		}
		d.batches[len(d.batches)-1]++
		d.enc = trace.AppendSample(d.enc, s)
		prev = s.Time
		c.samples++
		return nil
	})
	sort.Slice(c.devices, func(i, j int) bool { return c.devices[i].id < c.devices[j].id })
	return c, err
}

// source streams the campaign's samples, device by device.
func (c *campaign) source() analysis.Source {
	return func(fn func(*trace.Sample) error) error {
		var s trace.Sample
		for _, d := range c.devices {
			for buf := d.enc; len(buf) > 0; {
				n, err := trace.DecodeSample(buf, &s)
				if err != nil {
					return err
				}
				if err := fn(&s); err != nil {
					return err
				}
				buf = buf[n:]
			}
		}
		return nil
	}
}

// study wraps one campaign's results for report.Write.
func (e *env) study(run *core.CampaignRun) *core.Study {
	return &core.Study{
		Opts: core.Options{Scale: e.scale, Seed: e.seed},
		Runs: map[int]*core.CampaignRun{year: run},
	}
}

// render runs the render phase and returns the report.
func (m *meter) render(st *core.Study) ([]byte, error) {
	var buf bytes.Buffer
	err := m.during("render", func() error { return report.Write(&buf, st) })
	m.reportBytes += int64(buf.Len())
	return buf.Bytes(), err
}

// ledger checks one round's exactly-once conservation: every simulated
// sample was recorded, uploaded, accepted and spooled exactly once.
func (m *meter) ledger(simulated int64, f *fleet, tc tierCounts) {
	m.check(f.recorded == simulated, "agents recorded %d of %d simulated samples", f.recorded, simulated)
	m.check(f.uploaded == f.recorded, "agents uploaded %d of %d recorded samples", f.uploaded, f.recorded)
	m.check(tc.accepted == f.uploaded, "collectors accepted %d samples, agents uploaded %d", tc.accepted, f.uploaded)
	m.check(tc.spooled == tc.accepted, "spools hold %d samples, collectors accepted %d", tc.spooled, tc.accepted)
	m.check(tc.dups == 0, "collectors absorbed %d duplicate batches", tc.dups)
}

// --- pipeline ---------------------------------------------------------------

type pipelineRound struct {
	e    *env
	c    *campaign
	ref  *core.CampaignRun
	tier *tier

	// What the timed part produced.
	fleet *fleet
	merge *tiermerge.Stats
	out   *core.CampaignRun
}

// hourly cuts a device's samples into the agent's default 6-sample batches.
func hourly(n int, _, _ int64) bool { return n == 6 }

func setupPipeline(e *env, dir string) (round, error) {
	c, err := simulate(e, hourly)
	if err != nil {
		return nil, err
	}
	ref, err := core.AnalyzeCampaign(c.cfg, c.sm, c.source(), core.Options{})
	if err != nil {
		return nil, err
	}
	if err := warmUp(filepath.Join(dir, "warm-up"), c.devices[0], e.slots, false); err != nil {
		return nil, err
	}
	t, err := startTier(filepath.Join(dir, "tier"), 2, e.wrapSink)
	if err != nil {
		return nil, err
	}
	return &pipelineRound{e: e, c: c, ref: ref, tier: t}, nil
}

func (r *pipelineRound) run(m *meter) error {
	r.fleet = m.ingest(r.tier, r.c.devices, false)
	if err := m.during("drain", r.tier.drain); err != nil {
		return err
	}
	sh := analysis.NewShards(m.slots)
	if err := m.during("tiermerge", func() (err error) {
		r.merge, err = tiermerge.MergeDirs(r.tier.spoolDirs, sh.Add)
		return err
	}); err != nil {
		sh.Release()
		return err
	}
	if err := m.during("analyze", func() (err error) {
		r.out, err = core.AnalyzeCampaignShards(r.c.cfg, r.c.sm, sh, core.Options{Scale: r.e.scale, Seed: r.e.seed, Tracer: m.tracer})
		return err
	}); err != nil {
		return err
	}
	_, err := m.render(r.e.study(r.out))
	return err
}

func (r *pipelineRound) verify(m *meter) error {
	tc, err := r.tier.tally(m)
	if err != nil {
		return err
	}
	simulated := int64(r.c.samples)
	m.samples += simulated
	m.analyzed += int64(r.out.Prep.Card.Samples)
	m.mergeRead += int64(r.merge.Read)
	m.mergeUnique += int64(r.merge.Unique)
	m.ledger(simulated, r.fleet, tc)
	m.check(int64(r.merge.Unique) == simulated, "tiermerge emitted %d unique samples, simulated %d", r.merge.Unique, simulated)
	m.check(r.merge.FailoverDups == 0, "tiermerge absorbed %d failover duplicates", r.merge.FailoverDups)
	m.check(reflect.DeepEqual(r.out, r.ref), "CampaignRun over the collected campaign differs from the simulated campaign's")
	return nil
}

func (r *pipelineRound) close() error { return r.tier.drain() }

// --- ingest-daily -----------------------------------------------------------

type ingestDailyRound struct {
	c     *campaign
	tier  *tier
	fleet *fleet
}

func setupIngestDaily(e *env, dir string) (round, error) {
	cfg, err := config.ForYear(year, e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	meta := analysis.MetaFor(cfg)
	daily := func(_ int, prev, t int64) bool { return meta.Day(t) != meta.Day(prev) }
	c, err := simulate(e, daily)
	if err != nil {
		return nil, err
	}
	if err := warmUp(filepath.Join(dir, "warm-up"), c.devices[0], e.slots, true); err != nil {
		return nil, err
	}
	t, err := startTier(filepath.Join(dir, "tier"), 1, e.wrapSink)
	if err != nil {
		return nil, err
	}
	return &ingestDailyRound{c: c, tier: t}, nil
}

func (r *ingestDailyRound) run(m *meter) error {
	r.fleet = m.ingest(r.tier, r.c.devices, true)
	return m.during("drain", r.tier.drain)
}

func (r *ingestDailyRound) verify(m *meter) error {
	tc, err := r.tier.tally(m)
	if err != nil {
		return err
	}
	simulated := int64(r.c.samples)
	m.samples += simulated
	m.ledger(simulated, r.fleet, tc)
	for _, d := range r.c.devices {
		st, ok := r.tier.servers[0].Device(d.id)
		m.check(ok && st.LastBatch == uint64(len(d.batches)),
			"device %s: collector's last batch %d, sent %d", d.id, st.LastBatch, len(d.batches))
	}
	return nil
}

func (r *ingestDailyRound) close() error { return r.tier.drain() }

// --- report-full ------------------------------------------------------------

type reportFullRound struct {
	e        *env
	traceDir string
	panel    map[int]int
	want     []byte // EXPERIMENTS.md, compared when it is the run's reference

	study   *core.Study
	decoded uint64
	out     []byte
}

func setupReportFull(e *env, dir string) (round, error) {
	r := &reportFullRound{e: e, traceDir: filepath.Join(dir, "traces"), panel: map[int]int{}}
	for _, y := range config.Years {
		cfg, err := config.ForYear(y, e.scale, e.seed)
		if err != nil {
			return nil, err
		}
		sm, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		r.panel[y] = len(sm.Panel.Users)
	}
	// EXPERIMENTS.md is make experiments-full's output at scale 1, seed 1.
	if e.scale == 1 && e.seed == 1 {
		want, err := os.ReadFile("EXPERIMENTS.md")
		if err != nil {
			return nil, fmt.Errorf("reference report: %w", err)
		}
		r.want = want
	}
	return r, nil
}

func (r *reportFullRound) run(m *meter) error {
	dec0 := trace.DecodeCount()
	if err := m.during("analyze", func() (err error) {
		r.study, err = core.RunStudy(core.Options{
			Scale: r.e.scale, Seed: r.e.seed, TraceDir: r.traceDir,
			AnalysisWorkers: m.slots, Tracer: m.tracer,
		})
		return err
	}); err != nil {
		return err
	}
	r.decoded = trace.DecodeCount() - dec0
	var err error
	r.out, err = m.render(r.study)
	return err
}

// verify recounts each spooled campaign trace: a panel member whose late
// join falls after its dropout never reports, so the devices the report
// counts must equal the devices in the trace, at most the panel.
func (r *reportFullRound) verify(m *meter) error {
	samples := 0
	for _, y := range config.Years {
		n, devices := 0, map[trace.DeviceID]bool{}
		path := filepath.Join(r.traceDir, fmt.Sprintf("campaign-%d.trace", y))
		if err := analysis.FileSource(path)(func(s *trace.Sample) error {
			n++
			devices[s.Device] = true
			return nil
		}); err != nil {
			return err
		}
		run := r.study.Runs[y]
		samples += n
		m.check(run.Prep.Card.Samples == n, "%d: analysis counted %d samples, trace holds %d", y, run.Prep.Card.Samples, n)
		m.check(run.Overview.Total == len(devices) && len(devices) <= r.panel[y],
			"%d: Overview.Total %d, devices in trace %d, panel %d", y, run.Overview.Total, len(devices), r.panel[y])
	}
	m.samples += int64(samples)
	m.analyzed += int64(samples)
	m.check(r.decoded == 2*uint64(samples), "decoded %d samples for %d, want one decode per analysis pass", r.decoded, samples)
	if r.want != nil {
		m.check(bytes.Equal(r.out, r.want), "report differs from EXPERIMENTS.md")
	}
	return nil
}

func (r *reportFullRound) close() error { return nil }

// --- sketch-full ------------------------------------------------------------

type sketchFullRound struct {
	e     *env
	cfg   config.Campaign
	sm    *sim.Simulator
	path  string
	exact analysis.SketchCardinalityResult // exact counts tallied while writing
	out   *core.CampaignRun
}

func setupSketchFull(e *env, dir string) (round, error) {
	cfg, err := config.ForYear(year, e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &sketchFullRound{e: e, cfg: cfg, sm: sm, path: filepath.Join(dir, "campaign.trace")}
	f, err := os.Create(r.path)
	if err != nil {
		return nil, err
	}
	w := trace.NewWriter(f)
	devices := map[trace.DeviceID]bool{}
	aps := map[analysis.APKey]bool{}
	err = sm.Run(func(s *trace.Sample) error {
		r.exact.Samples++
		if !s.Tethered && s.OS == trace.Android && s.WiFiState == trace.WiFiOn {
			r.exact.AvailIntervals++
		}
		devices[s.Device] = true
		for _, ap := range s.APs {
			aps[analysis.APKey{BSSID: ap.BSSID, ESSID: ap.ESSID}] = true
		}
		return w.Write(s)
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	r.exact.Devices, r.exact.APs = uint64(len(devices)), uint64(len(aps))
	return r, err
}

func (r *sketchFullRound) run(m *meter) error {
	if err := m.during("analyze", func() (err error) {
		r.out, err = core.AnalyzeCampaign(r.cfg, r.sm, analysis.FileSource(r.path),
			core.Options{Scale: r.e.scale, Seed: r.e.seed, SketchMode: true, Tracer: m.tracer})
		return err
	}); err != nil {
		return err
	}
	_, err := m.render(r.e.study(r.out))
	return err
}

func (r *sketchFullRound) verify(m *meter) error {
	m.samples += int64(r.exact.Samples)
	m.analyzed += int64(r.exact.Samples)
	card := r.out.SketchCard
	if !m.check(card != nil, "sketch mode produced no SketchCard") {
		return nil
	}
	m.check(card.Samples == r.exact.Samples, "SketchCard counted %d samples, trace holds %d", card.Samples, r.exact.Samples)
	m.check(card.AvailIntervals == r.exact.AvailIntervals, "SketchCard counted %d availability intervals, trace holds %d",
		card.AvailIntervals, r.exact.AvailIntervals)
	m.check(within(card.Devices, r.exact.Devices, 0.05), "HLL estimates %d devices, trace holds %d", card.Devices, r.exact.Devices)
	m.check(within(card.APs, r.exact.APs, 0.05), "HLL estimates %d APs, trace holds %d", card.APs, r.exact.APs)
	return nil
}

func (r *sketchFullRound) close() error { return nil }

// within reports whether an estimate lies within tol relative error of exact.
func within(est, exact uint64, tol float64) bool {
	return math.Abs(float64(est)-float64(exact)) <= tol*float64(exact)
}
