// Command loadgen stress-tests the ingest path: it replays many concurrent
// synthetic agents against a collector — an in-process one by default, or a
// running collectd over TCP via -addr — driving every upload through the real
// agent batching/retry/spool machinery and the real wire protocol.
//
// It reports client-side ack latency percentiles (p50/p95/p99/max, measured
// per batch flush), sustained samples/sec, and server-side counters scraped
// from the obs /metrics endpoint, then cross-checks exactly-once
// conservation: every sample the fleet reports uploaded must be accepted by
// the collector exactly once (frames == accepted + duplicates, accepted
// samples == fleet uploads, sink receipt == acceptance). Any imbalance
// counts as a conservation error and fails the run.
//
// The results are written as a machine-readable manifest (-out), committed
// next to BENCH_*.json as INGEST_*.json — the ingest performance anchor:
//
//	loadgen -agents 1000 -batches 6 -batch 24 -wal -out INGEST.json
//	loadgen -addr collectd.host:7020 -metrics http://collectd.host:9090 -token s3cret
//
// Against a collector tier, pass every replica to -addrs and every metrics
// endpoint to -metrics; the fleet spreads across replicas by rendezvous
// hashing and fails over on refusal, and server counters are summed across
// endpoints before reconciliation:
//
//	loadgen -addrs host:7020,host:7021,host:7022 \
//	        -metrics http://host:9090,http://host:9091,http://host:9092
//
// In-process mode spins up the collector with a rotating spool (and, with
// -wal, a write-ahead log whose "batch" fsync policy exercises group commit
// under concurrent connections) in a scratch directory that also holds the
// -agent-spool journals. It is deleted when the run ends, pass or fail,
// unless -scratch names a path to keep.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/obs"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// options is one run's configuration: the command-line flags, plus a hook
// for tests.
type options struct {
	addr, addrs, metrics string
	agents, batches      int
	batch, aps, essids   int
	token                string
	seed                 int64
	scratch              string
	useWAL               bool
	fsync                string
	fsyncLag             time.Duration
	spool                bool
	out                  string
	minRate              float64
	timeout, readTimeout time.Duration

	// wrapSink, when non-nil, wraps the in-process collector's sink.
	wrapSink func(collector.Sink) collector.Sink
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("loadgen: ")
	var o options
	flag.StringVar(&o.addr, "addr", "", "collectd address to load (empty starts an in-process collector)")
	flag.StringVar(&o.addrs, "addrs", "", "comma-separated collectd tier addresses (overrides -addr; agents pick a rendezvous primary per device and fail over between replicas)")
	flag.StringVar(&o.metrics, "metrics", "", "comma-separated metrics endpoint base URLs to scrape; counters are summed across endpoints (default: the in-process one; required with -addr/-addrs for server-side counters)")
	flag.IntVar(&o.agents, "agents", 1000, "concurrent synthetic agents")
	flag.IntVar(&o.batches, "batches", 6, "batches each agent uploads")
	flag.IntVar(&o.batch, "batch", 24, "samples per batch")
	flag.IntVar(&o.aps, "aps", 2, "AP observations per sample")
	flag.IntVar(&o.essids, "essids", 512, "distinct ESSID universe")
	flag.StringVar(&o.token, "token", "", "shared auth token")
	flag.Int64Var(&o.seed, "seed", 1, "workload rng seed (same seed, same samples)")
	flag.StringVar(&o.scratch, "scratch", "", "scratch dir for in-process collector state and agent spools (kept; empty uses a deleted temp dir)")
	flag.BoolVar(&o.useWAL, "wal", false, "give the in-process collector a write-ahead log")
	flag.StringVar(&o.fsync, "fsync", "batch", "WAL fsync policy: batch (group commit), interval, or off")
	flag.DurationVar(&o.fsyncLag, "fsync-delay", 0, "emulate slow-disk fsync by sleeping this long per WAL fsync (shows group-commit coalescing on fast disks)")
	flag.BoolVar(&o.spool, "agent-spool", false, "journal each agent's queue to a disk spool in scratch")
	flag.StringVar(&o.out, "out", "", "write the JSON manifest here (stdout always gets a summary)")
	flag.Float64Var(&o.minRate, "min-rate", 0, "fail unless samples/sec reaches this floor (0 disables)")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "overall run deadline")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "in-process collector per-frame read deadline")
	flag.Parse()
	// Every failure returns through run, so its deferred cleanup — the
	// in-process collector's shutdown and the temp scratch removal — runs
	// before the process exits.
	if err := run(o, os.Stdout); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run executes one load test and writes the manifest to stdout. It fails on
// bad options, setup errors, the -timeout deadline, any conservation error,
// or a rate under -min-rate.
func run(o options, stdout io.Writer) error {
	if o.agents <= 0 || o.batches <= 0 || o.batch <= 0 {
		return errors.New("-agents, -batches, and -batch must be positive")
	}
	scratch := o.scratch
	if scratch == "" {
		d, err := os.MkdirTemp("", "loadgen-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		scratch = d
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}

	// --- target: in-process collector, or a remote one (or a remote tier) --
	scrapeURLs := splitList(o.metrics)
	tier := splitList(o.addrs)
	target := o.addr
	if len(tier) > 0 {
		target = tier[0] // agents dial by cfg.Servers; target is informational
	}
	var (
		sunk     atomic.Int64
		walLog   *wal.Log
		inProcSt func() *collector.Stats
		// abandon is set when the fleet overruns -timeout: agents may still
		// hold connections, so the in-process collector is left running
		// instead of drained, and only the scratch removal happens.
		abandon bool
	)
	if target == "" {
		reg := obs.NewRegistry()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		msrv := &http.Server{Handler: obs.Handler(reg, nil)}
		go msrv.Serve(ln)
		defer msrv.Close()
		if len(scrapeURLs) == 0 {
			scrapeURLs = []string{"http://" + ln.Addr().String()}
		}

		sp, err := collector.NewRotatingSpool(filepath.Join(scratch, "spool"), 256<<20)
		if err != nil {
			return err
		}
		defer func() {
			if abandon {
				return
			}
			if err := sp.Close(); err != nil {
				log.Printf("spool close: %v", err)
			}
		}()
		if o.useWAL {
			policy, err := wal.ParsePolicy(o.fsync)
			if err != nil {
				return err
			}
			opts := wal.Options{
				Policy:      policy,
				Metrics:     reg,
				MetricsName: "collector",
			}
			if d := o.fsyncLag; d > 0 {
				// On fast local disks fsync returns in microseconds, so
				// group-commit rounds rarely overlap and the fsyncs/appends
				// ratio stays near 1. This hook stretches each fsync to a
				// realistic spinning-disk latency so coalescing is visible
				// in the manifest.
				opts.Hook = func(point string) error {
					if point == "group-fsync" {
						time.Sleep(d)
					}
					return nil
				}
			}
			walLog, err = wal.Open(filepath.Join(scratch, "wal"), opts)
			if err != nil {
				return err
			}
			defer func() {
				if abandon {
					return
				}
				if err := walLog.Close(); err != nil {
					log.Printf("wal close: %v", err)
				}
			}()
		}
		spSink := sp.Sink()
		sink := collector.Sink(func(s *trace.Sample) error {
			sunk.Add(1)
			return spSink(s)
		})
		if o.wrapSink != nil {
			sink = o.wrapSink(sink)
		}
		srv, err := collector.New(collector.Config{
			Addr:        "127.0.0.1:0",
			Token:       o.token,
			Sink:        sink,
			ReadTimeout: o.readTimeout,
			MaxConns:    o.agents + 16,
			WAL:         walLog,
			Metrics:     reg,
			Logf:        func(string, ...any) {},
		})
		if err != nil {
			return err
		}
		if err := srv.Listen(); err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ctx)
		}()
		// Deferred calls run last-in first-out: the collector stops before
		// the WAL and spool it writes to are closed.
		defer func() {
			cancel()
			if !abandon {
				<-served
			}
		}()
		target = srv.Addr().String()
		inProcSt = srv.Stats
		log.Printf("in-process collector on %s (scratch %s, wal=%v fsync=%s), metrics %s",
			target, scratch, o.useWAL, o.fsync, scrapeURLs[0])
	}

	before, err := scrapeAll(scrapeURLs)
	if err != nil {
		return err
	}

	// --- drive the fleet ---------------------------------------------------
	deadline := time.After(o.timeout)
	fleetDone := make(chan fleetResult, 1)
	go func() {
		fleetDone <- runFleet(target, tier, o.token, o.agents, o.batches, o.batch, o.aps, o.essids, o.seed, o.spool, scratch)
	}()
	var fleet fleetResult
	select {
	case fleet = <-fleetDone:
	case <-deadline:
		abandon = true
		return fmt.Errorf("run exceeded -timeout %s", o.timeout)
	}

	after, err := scrapeAll(scrapeURLs)
	if err != nil {
		return err
	}

	// --- reconcile ---------------------------------------------------------
	man := buildManifest(fleet, before, after, o.agents, o.batches, o.batch)
	if inProcSt != nil {
		st := inProcSt()
		man.Server.SinkSamples = sunk.Load()
		if sunk.Load() != fleet.uploaded {
			man.conservation("sink received %d samples, fleet uploaded %d", sunk.Load(), fleet.uploaded)
		}
		if st.SinkErrs.Load() != 0 {
			man.conservation("%d sink errors", st.SinkErrs.Load())
		}
	}
	if walLog != nil {
		man.WAL = &walManifest{Fsync: o.fsync, Appends: diffCounter(before, after, "wal_appends_total"), Fsyncs: diffCounter(before, after, "wal_fsyncs_total")}
	}

	data, err := json.MarshalIndent(map[string]*manifest{"loadgen": man}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	if _, err := stdout.Write(data); err != nil {
		return err
	}

	log.Printf("%d agents x %d batches x %d samples: %.0f samples/sec, ack p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms, %d retries, %d conservation errors",
		o.agents, o.batches, o.batch, man.SamplesPerSec,
		man.AckLatencyMS.P50, man.AckLatencyMS.P95, man.AckLatencyMS.P99, man.AckLatencyMS.Max,
		man.Client.Retries, len(man.ConservationErrors))
	if len(tier) > 0 {
		log.Printf("tier: %d replicas, %d failovers", len(tier), man.Client.Failovers)
	}
	for _, e := range man.ConservationErrors {
		log.Printf("CONSERVATION: %s", e)
	}
	if n := len(man.ConservationErrors); n > 0 {
		return fmt.Errorf("FAIL: %d conservation errors", n)
	}
	if o.minRate > 0 && man.SamplesPerSec < o.minRate {
		return fmt.Errorf("FAIL: %.0f samples/sec under the -min-rate floor %.0f", man.SamplesPerSec, o.minRate)
	}
	return nil
}

// fleetResult aggregates the client side of a run.
type fleetResult struct {
	latencies []time.Duration // one per batch flush, all agents
	duration  time.Duration
	uploaded  int64
	recorded  int64
	dropped   int64
	retries   int64
	failovers int64
	spoolErrs int64
	failures  int64 // agents that errored (flush after retries, or close)
	errs      []string
}

// runFleet spawns the agents, runs every upload, and merges their stats.
func runFleet(target string, tier []string, token string, agents, batches, batchSz, aps, essids int, seed int64, spool bool, scratch string) fleetResult {
	var (
		mu  sync.Mutex
		res fleetResult
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lats, st, err := runAgent(target, tier, token, i, batches, batchSz, aps, essids, seed, spool, scratch)
			mu.Lock()
			defer mu.Unlock()
			res.latencies = append(res.latencies, lats...)
			res.uploaded += int64(st.Uploaded)
			res.recorded += int64(st.Recorded)
			res.dropped += int64(st.Dropped)
			res.retries += int64(st.Retries)
			res.failovers += int64(st.Failovers)
			res.spoolErrs += int64(st.SpoolErrs)
			if err != nil {
				res.failures++
				if len(res.errs) < 8 {
					res.errs = append(res.errs, err.Error())
				}
			}
		}(i)
	}
	wg.Wait()
	res.duration = time.Since(start)
	return res
}

// runAgent is one synthetic handset: batches uploads of batchSz samples
// each, every flush timed as one ack latency observation.
func runAgent(target string, tier []string, token string, idx, batches, batchSz, aps, essids int, seed int64, spool bool, scratch string) ([]time.Duration, agent.Stats, error) {
	cfg := agent.Config{
		Server:    target,
		Servers:   tier,
		Device:    trace.DeviceID(1 + idx),
		OS:        trace.Android,
		Token:     token,
		BatchSize: 1 << 30, // flush manually so each batch is one timed upload
		MaxCache:  batchSz * (batches + 1),
	}
	if spool {
		cfg.SpoolDir = filepath.Join(scratch, "agent-spool", fmt.Sprintf("a%05d", idx))
	}
	a, err := agent.New(cfg)
	if err != nil {
		return nil, agent.Stats{}, err
	}
	rng := rand.New(rand.NewSource(seed + int64(idx)))
	lats := make([]time.Duration, 0, batches)
	t := int64(1_400_000_000) + int64(idx)
	var firstErr error
	for b := 0; b < batches; b++ {
		for s := 0; s < batchSz; s++ {
			smp := synthSample(rng, t, aps, essids)
			a.Record(&smp)
			t += 600
		}
		t0 := time.Now()
		err := a.Flush()
		lats = append(lats, time.Since(t0))
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := a.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return lats, a.Stats(), firstErr
}

// synthSample produces one valid sample: a phone associated to one of the
// ESSID universe's APs with a couple of scan results, modest cellular and
// WiFi traffic, and app counters that stay within the interface totals.
func synthSample(rng *rand.Rand, t int64, aps, essids int) trace.Sample {
	s := trace.Sample{
		OS:        trace.Android,
		Time:      t,
		GeoCX:     int16(rng.Intn(100)),
		GeoCY:     int16(rng.Intn(100)),
		WiFiState: trace.WiFiAssociated,
		RAT:       trace.RATLTE,
		CellRX:    uint64(rng.Intn(1 << 16)),
		CellTX:    uint64(rng.Intn(1 << 12)),
		WiFiRX:    uint64(rng.Intn(1 << 20)),
		WiFiTX:    uint64(rng.Intn(1 << 14)),
		Battery:   uint8(rng.Intn(101)),
	}
	s.Apps = []trace.AppTraffic{
		{Category: trace.CatVideo, Iface: trace.WiFi, RX: s.WiFiRX / 2, TX: s.WiFiTX / 2},
		{Category: trace.CatBrowser, Iface: trace.Cellular, RX: s.CellRX / 2, TX: s.CellTX / 2},
	}
	for j := 0; j < aps; j++ {
		id := rng.Intn(essids)
		s.APs = append(s.APs, trace.APObs{
			BSSID:      trace.BSSID(0x1000 + id),
			ESSID:      fmt.Sprintf("ap-%04d", id),
			RSSI:       int8(-40 - rng.Intn(50)),
			Channel:    uint8(1 + rng.Intn(11)),
			Band:       trace.Band24,
			Associated: j == 0,
		})
	}
	return s
}

// --- manifest ---------------------------------------------------------------

type latencyManifest struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type clientManifest struct {
	Uploaded  int64 `json:"uploaded_samples"`
	Recorded  int64 `json:"recorded_samples"`
	Dropped   int64 `json:"dropped_samples"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers,omitempty"`
	SpoolErrs int64 `json:"spool_errors"`
	Failures  int64 `json:"agent_failures"`
}

type serverManifest struct {
	Frames      int64 `json:"batch_frames"`
	Accepted    int64 `json:"accepted_batches"`
	DupBatches  int64 `json:"dup_batches"`
	Samples     int64 `json:"accepted_samples"`
	SinkSamples int64 `json:"sink_samples,omitempty"`
	ConnErrs    int64 `json:"conn_errors"`
	SinkErrs    int64 `json:"sink_errors"`
	AuthFails   int64 `json:"auth_failures"`
}

type walManifest struct {
	Fsync   string `json:"fsync"`
	Appends int64  `json:"appends"`
	Fsyncs  int64  `json:"fsyncs"`
}

type manifest struct {
	Agents             int             `json:"agents"`
	BatchesPerAgent    int             `json:"batches_per_agent"`
	SamplesPerBatch    int             `json:"samples_per_batch"`
	DurationSeconds    float64         `json:"duration_seconds"`
	SamplesPerSec      float64         `json:"samples_per_sec"`
	BatchesPerSec      float64         `json:"batches_per_sec"`
	AckLatencyMS       latencyManifest `json:"ack_latency_ms"`
	Client             clientManifest  `json:"client"`
	Server             serverManifest  `json:"server"`
	WAL                *walManifest    `json:"wal,omitempty"`
	ConservationErrors []string        `json:"conservation_errors"`
}

func (m *manifest) conservation(format string, args ...any) {
	m.ConservationErrors = append(m.ConservationErrors, fmt.Sprintf(format, args...))
}

// buildManifest reconciles the fleet's view with the scraped server deltas;
// counter deltas are summed across every scraped endpoint, so a tier of
// share-nothing replicas reconciles as one logical collector.
func buildManifest(fleet fleetResult, before, after []*obs.Snapshot, agents, batches, batchSz int) *manifest {
	m := &manifest{
		Agents:             agents,
		BatchesPerAgent:    batches,
		SamplesPerBatch:    batchSz,
		DurationSeconds:    fleet.duration.Seconds(),
		ConservationErrors: []string{},
		Client: clientManifest{
			Uploaded:  fleet.uploaded,
			Recorded:  fleet.recorded,
			Dropped:   fleet.dropped,
			Retries:   fleet.retries,
			Failovers: fleet.failovers,
			SpoolErrs: fleet.spoolErrs,
			Failures:  fleet.failures,
		},
	}
	if fleet.duration > 0 {
		m.SamplesPerSec = float64(fleet.uploaded) / fleet.duration.Seconds()
		m.BatchesPerSec = float64(len(fleet.latencies)) / fleet.duration.Seconds()
	}
	sort.Slice(fleet.latencies, func(i, j int) bool { return fleet.latencies[i] < fleet.latencies[j] })
	m.AckLatencyMS = latencyManifest{
		P50: ms(pct(fleet.latencies, 50)),
		P95: ms(pct(fleet.latencies, 95)),
		P99: ms(pct(fleet.latencies, 99)),
		Max: ms(pct(fleet.latencies, 100)),
	}

	expected := int64(agents) * int64(batches) * int64(batchSz)
	if fleet.recorded != expected {
		m.conservation("fleet recorded %d samples, expected %d", fleet.recorded, expected)
	}
	if fleet.uploaded != fleet.recorded {
		m.conservation("fleet uploaded %d of %d recorded samples", fleet.uploaded, fleet.recorded)
	}
	if fleet.dropped != 0 {
		m.conservation("fleet dropped %d samples", fleet.dropped)
	}
	if fleet.failures != 0 {
		m.conservation("%d agents failed: %v", fleet.failures, fleet.errs)
	}

	if len(after) > 0 {
		m.Server = serverManifest{
			Frames:     diffCounter(before, after, "collector_batch_frames_total"),
			Accepted:   diffCounter(before, after, "collector_accepted_batches_total"),
			DupBatches: diffCounter(before, after, "collector_dup_batches_total"),
			Samples:    diffCounter(before, after, "collector_samples_total"),
			ConnErrs:   diffCounter(before, after, "collector_conn_errors_total"),
			SinkErrs:   diffCounter(before, after, "collector_sink_errors_total"),
			AuthFails:  diffCounter(before, after, "collector_auth_fails_total"),
		}
		// The exactly-once ledger: every frame is either a fresh acceptance
		// or a deduplicated replay, and accepted samples equal the fleet's
		// uploads — no loss, no double count, even under retries.
		if m.Server.Frames != m.Server.Accepted+m.Server.DupBatches {
			m.conservation("server frames %d != accepted %d + dups %d",
				m.Server.Frames, m.Server.Accepted, m.Server.DupBatches)
		}
		if m.Server.Samples != fleet.uploaded {
			m.conservation("server accepted %d samples, fleet uploaded %d", m.Server.Samples, fleet.uploaded)
		}
		if m.Server.SinkErrs != 0 {
			m.conservation("%d server sink errors", m.Server.SinkErrs)
		}
		if m.Server.AuthFails != 0 {
			m.conservation("%d auth failures", m.Server.AuthFails)
		}
	}
	return m
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// pct is the exact nearest-rank percentile of a sorted slice.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// scrapeAll fetches and parses the JSON metrics exposition from every
// endpoint. No endpoints (remote mode without -metrics) yields nil.
func scrapeAll(bases []string) ([]*obs.Snapshot, error) {
	var snaps []*obs.Snapshot
	for _, base := range bases {
		snap, err := scrape(base)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", base, err)
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

// scrapeClient bounds each metrics fetch, so a stalled endpoint fails the
// scrape instead of hanging the run past -timeout.
var scrapeClient = &http.Client{Timeout: 30 * time.Second}

func scrape(base string) (*obs.Snapshot, error) {
	resp, err := scrapeClient.Get(base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return obs.ParseJSON(body)
}

// diffCounter is a counter's delta across the run, summed over every scraped
// endpoint — a replica tier's share-nothing counters add up to the tier-wide
// total. A shorter (or nil) before treats those endpoints as starting at zero.
func diffCounter(before, after []*obs.Snapshot, name string) int64 {
	var total int64
	for i, a := range after {
		total += a.CounterTotal(name)
		if i < len(before) {
			total -= before[i].CounterTotal(name)
		}
	}
	return total
}
