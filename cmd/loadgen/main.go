// Command loadgen drives real measurement agents into a collector (an
// in-process one, or collectd processes over TCP via -addrs) through the
// real agent batching/retry/spool machinery and wire protocol. The agents
// record a synthetic fleet, or with -campaign a simulated panel, one agent
// per device: the §2 pipeline end to end. -faults wraps every agent's dial
// in faultnet: a failed upload stays cached for the next, and only samples
// Close abandons fail an agent. On a tier a lost ack lets a retry land on a
// second replica too, which only tiermerge absorbs: fault a tier with dial=.
//
// It reports client-side ack latency percentiles (p50/p95/p99/max per
// batch flush), samples/sec, and server-side counters — from the in-process
// collector's obs registry, or summed over the -metrics endpoints of remote
// ones — then checks exactly-once conservation (frames == accepted +
// duplicates, accepted samples == fleet uploads, sink receipt ==
// acceptance): any imbalance fails the run. The default fleet's manifest
// (-out) is committed as INGEST_*.json, the ingest performance anchor:
//
//	loadgen -agents 1000 -batches 6 -batch 24 -out INGEST.json
//	loadgen -campaign 2015 -scale 0.02 -faults dial=0.05,ackloss=0.05
//	loadgen -addrs host:7020,host:7021,host:7022 \
//	        -metrics http://host:9090,http://host:9091,http://host:9092
//
// In-process mode runs the collector as a collector.Replica (rotating
// spool, group-committed WAL) in a scratch directory that also holds the
// -agent-spool journals. It is deleted when the run ends, pass or fail,
// unless -scratch names a path to keep; a re-run on a kept -scratch
// recovers the previous run's WAL before it serves.
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
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/faultnet"
	"smartusage/internal/obs"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// options is one run's configuration: the command-line flags, plus a hook
// for tests.
type options struct {
	addrs, metrics       string
	agents, batches      int
	batch, aps, essids   int
	campaign             int
	scale                float64
	faults, token        string
	seed                 int64
	scratch              string
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
	flag.StringVar(&o.addrs, "addrs", "", "comma-separated collectd addresses to load; agents pick a rendezvous primary per device and fail over between them (empty starts an in-process collector)")
	flag.StringVar(&o.metrics, "metrics", "", "comma-separated metrics endpoint base URLs to scrape; counters are summed across endpoints (default: the in-process one; required with -addrs for server-side counters)")
	flag.IntVar(&o.agents, "agents", 1000, "concurrent synthetic agents")
	flag.IntVar(&o.batches, "batches", 6, "batches each agent uploads")
	flag.IntVar(&o.batch, "batch", 24, "samples per batch")
	flag.IntVar(&o.aps, "aps", 2, "AP observations per sample")
	flag.IntVar(&o.essids, "essids", 512, "distinct ESSID universe")
	flag.IntVar(&o.campaign, "campaign", 0, "replay this year's simulated panel (2013, 2014 or 2015), one agent per device, instead of the synthetic fleet")
	flag.Float64Var(&o.scale, "scale", 0.01, "panel scale of the -campaign replay")
	flag.StringVar(&o.faults, "faults", "", "inject network faults into every agent's connections, e.g. dial=0.1,reset=0.05,ackloss=0.1 (see faultnet.ParseSpec)")
	flag.StringVar(&o.token, "token", "", "shared auth token")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the synthetic samples, the simulated panel and the fault schedule (same seed, same samples)")
	flag.StringVar(&o.scratch, "scratch", "", "scratch dir for in-process collector state and agent spools (kept; empty uses a deleted temp dir)")
	flag.BoolVar(&o.spool, "agent-spool", false, "journal each agent's queue to a disk spool in scratch")
	flag.StringVar(&o.out, "out", "", "write the JSON manifest here (stdout always gets a summary)")
	flag.Float64Var(&o.minRate, "min-rate", 0, "fail unless samples/sec reaches this floor (0 disables)")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "overall run deadline")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "in-process collector per-frame read deadline")
	flag.Parse()
	owned := map[string]bool{"agents": false, "batches": false, "aps": false, "essids": false, "scale": true} // true: -campaign's
	flag.Visit(func(f *flag.Flag) {
		if campaign, ok := owned[f.Name]; ok && campaign != (o.campaign != 0) {
			log.Fatalf("-%s does not apply to this run's sample source (-campaign selects the simulated panel)", f.Name)
		}
	})
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
func run(o options, stdout io.Writer) (err error) {
	if o.batch <= 0 || o.campaign == 0 && (o.agents <= 0 || o.batches <= 0) {
		return errors.New("-agents, -batches, and -batch must be positive")
	}
	src := synthetic(&o)
	if o.campaign != 0 {
		if src, err = simulated(o.campaign, o.scale, o.seed); err != nil {
			return err
		}
	}
	var dial func(string, time.Duration) (net.Conn, error) // nil: the agent's own
	faults := &faultnet.Stats{}
	if o.faults != "" {
		fcfg, err := faultnet.ParseSpec(o.faults)
		if err != nil {
			return err
		}
		fcfg.Seed = o.seed
		inj := faultnet.New(fcfg)
		dial, faults = inj.Dial(nil), inj.Stats()
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
	snapshot := func() ([]*obs.Snapshot, error) { return scrapeAll(scrapeURLs) }
	servers := splitList(o.addrs)
	// The deadline also bounds the replica's drain: after a timeout the
	// fleet may still hold connections, and the drain does not wait on them.
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	var (
		rep           *collector.Replica
		spooledBefore int64 // samples the replica's recovery re-sank
	)
	if len(servers) == 0 {
		reg := obs.NewRegistry()
		if len(scrapeURLs) == 0 {
			snapshot = func() ([]*obs.Snapshot, error) { return []*obs.Snapshot{reg.Snapshot()}, nil }
		}
		rcfg := collector.ReplicaConfig{
			Server: collector.Config{
				Addr:        "127.0.0.1:0",
				Token:       o.token,
				ReadTimeout: o.readTimeout,
				MaxConns:    src.agents + 16,
				Metrics:     reg,
				Logf:        func(string, ...any) {},
			},
			SpoolDir:   filepath.Join(scratch, "spool"),
			SpoolBytes: 256 << 20,
			WALDir:     filepath.Join(scratch, "wal"),
			WAL:        wal.Options{Metrics: reg, MetricsName: "collector"},
			WrapSink:   o.wrapSink,
		}
		if rep, err = collector.StartReplica(rcfg); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, rep.Drain(ctx)) }()
		spooledBefore = rep.Spool().Samples()
		servers = []string{rep.Server().Addr().String()}
		log.Printf("in-process collector on %s (scratch %s)", servers[0], scratch)
	}

	before, err := snapshot()
	if err != nil {
		return err
	}

	// --- drive the fleet ---------------------------------------------------
	fleetDone := make(chan fleetResult, 1)
	go func() { fleetDone <- runFleet(&o, servers, src, dial, scratch) }()
	var fleet fleetResult
	select {
	case fleet = <-fleetDone:
	case <-ctx.Done():
		return fmt.Errorf("run exceeded -timeout %s", o.timeout)
	}

	after, err := snapshot()
	if err != nil {
		return err
	}

	// --- reconcile ---------------------------------------------------------
	man := buildManifest(fleet, before, after, src, o.batch)
	man.Client.Faults = faults.Total()
	if rep != nil {
		// Count only this run's samples: a kept -scratch spool also holds
		// the previous run's, and recovery re-sinks its WAL tail.
		spooled := rep.Spool().Samples() - spooledBefore
		man.Server.SinkSamples = spooled
		if spooled != man.Client.Uploaded {
			man.conservation("sink received %d samples, fleet uploaded %d", spooled, man.Client.Uploaded)
		}
		if n := rep.Server().Stats().SinkErrs.Load(); n != 0 {
			man.conservation("%d sink errors", n)
		}
		man.WAL = &walManifest{Fsync: wal.FsyncRecord.String(), Appends: diffCounter(before, after, "wal_appends_total"), Fsyncs: diffCounter(before, after, "wal_fsyncs_total")}
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

	log.Printf("%d agents, %d samples in batches of %d: %.0f samples/sec, ack p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms, %d retries, %d conservation errors",
		src.agents, src.samples, o.batch, man.SamplesPerSec,
		man.AckLatencyMS.P50, man.AckLatencyMS.P95, man.AckLatencyMS.P99, man.AckLatencyMS.Max,
		man.Client.Retries, len(man.ConservationErrors))
	if len(servers) > 1 {
		log.Printf("tier: %d replicas, %d failovers", len(servers), man.Client.Failovers)
	}
	if o.faults != "" {
		log.Printf("faults: %s", faults)
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
	client    clientManifest
	latencies []time.Duration // one per batch flush, all agents
	duration  time.Duration
	errs      []string // of the first agents that failed
}

// source is where the fleet's samples come from: agent i is device dev on
// OS platform, recording n samples that next returns in turn.
type source struct {
	agents, batches int // batches is 0 when each agent's samples set it
	samples         int64
	agent           func(i int) (dev trace.DeviceID, platform trace.OS, n int, next func() *trace.Sample)
}

// synthetic is o's fleet of synthetic Android handsets, each drawing its
// samples from its own rng.
func synthetic(o *options) *source {
	n := o.batches * o.batch
	return &source{agents: o.agents, batches: o.batches, samples: int64(o.agents) * int64(n),
		agent: func(i int) (trace.DeviceID, trace.OS, int, func() *trace.Sample) {
			rng := rand.New(rand.NewSource(o.seed + int64(i)))
			t := int64(1_400_000_000) + int64(i) - 600
			return trace.DeviceID(1 + i), trace.Android, n, func() *trace.Sample {
				t += 600
				s := synthSample(rng, t, o.aps, o.essids)
				return &s
			}
		}}
}

// simulated is year's panel at scale, simulated into memory before the
// fleet starts: one agent per device, recording its samples in time order.
func simulated(year int, scale float64, seed int64) (*source, error) {
	cfg, err := config.ForYear(year, scale, seed)
	if err != nil {
		return nil, err
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	src := &source{}
	var devs [][]trace.Sample
	err = sm.Run(func(s *trace.Sample) error { // one device after another
		if n := len(devs); n == 0 || devs[n-1][0].Device != s.Device {
			devs = append(devs, nil)
		}
		devs[len(devs)-1] = append(devs[len(devs)-1], *s.Clone())
		src.samples++
		return nil
	})
	src.agents = len(devs)
	src.agent = func(i int) (trace.DeviceID, trace.OS, int, func() *trace.Sample) {
		ss, j := devs[i], -1
		return ss[0].Device, ss[0].OS, len(ss), func() *trace.Sample { j++; return &ss[j] }
	}
	return src, err
}

// runFleet spawns the agents, runs every upload, and merges their stats.
func runFleet(o *options, servers []string, src *source, dial func(string, time.Duration) (net.Conn, error), scratch string) fleetResult {
	var (
		mu  sync.Mutex
		res fleetResult
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < src.agents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lats, st, err := runAgent(o, servers, src, i, dial, scratch)
			mu.Lock()
			defer mu.Unlock()
			res.latencies = append(res.latencies, lats...)
			c := &res.client
			c.Uploaded += int64(st.Uploaded)
			c.Recorded += int64(st.Recorded)
			c.Dropped += int64(st.Dropped)
			c.Retries += int64(st.Retries)
			c.Failovers += int64(st.Failovers)
			c.SpoolErrs += int64(st.SpoolErrs)
			if err != nil {
				c.Failures++
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

// runAgent is agent i of the fleet: it uploads its samples -batch at a
// time, every flush timed as one ack latency observation.
func runAgent(o *options, servers []string, src *source, i int, dial func(string, time.Duration) (net.Conn, error), scratch string) ([]time.Duration, agent.Stats, error) {
	dev, platform, n, next := src.agent(i)
	cfg := agent.Config{
		Servers:   servers,
		Device:    dev,
		OS:        platform,
		Token:     o.token,
		BatchSize: 1 << 30, // flush manually so each batch is one timed upload
		MaxCache:  n + o.batch,
		Dial:      dial,
	}
	if o.spool {
		cfg.SpoolDir = filepath.Join(scratch, "agent-spool", fmt.Sprintf("a%05d", i))
	}
	a, err := agent.New(cfg)
	if err != nil {
		return nil, agent.Stats{}, err
	}
	lats := make([]time.Duration, 0, (n+o.batch-1)/o.batch)
	var firstErr error
	for j := 0; j < n; {
		for end := min(j+o.batch, n); j < end; j++ {
			a.Record(next())
		}
		t0 := time.Now()
		err := a.Flush()
		lats = append(lats, time.Since(t0))
		// Under -faults a failed flush keeps its samples cached for the
		// next one, and only what Close abandons fails the agent.
		if err != nil && firstErr == nil && o.faults == "" {
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
	Faults    int64 `json:"faults_injected,omitempty"`
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

// machineManifest records where the run was measured.
type machineManifest struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

type manifest struct {
	Machine            machineManifest `json:"machine"`
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
func buildManifest(fleet fleetResult, before, after []*obs.Snapshot, src *source, batchSz int) *manifest {
	m := &manifest{
		Machine: machineManifest{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
		},
		Agents:             src.agents,
		BatchesPerAgent:    src.batches,
		SamplesPerBatch:    batchSz,
		DurationSeconds:    fleet.duration.Seconds(),
		ConservationErrors: []string{},
		Client:             fleet.client,
	}
	c := &m.Client
	if fleet.duration > 0 {
		m.SamplesPerSec = float64(c.Uploaded) / fleet.duration.Seconds()
		m.BatchesPerSec = float64(len(fleet.latencies)) / fleet.duration.Seconds()
	}
	sort.Slice(fleet.latencies, func(i, j int) bool { return fleet.latencies[i] < fleet.latencies[j] })
	m.AckLatencyMS = latencyManifest{
		P50: ms(pct(fleet.latencies, 50)),
		P95: ms(pct(fleet.latencies, 95)),
		P99: ms(pct(fleet.latencies, 99)),
		Max: ms(pct(fleet.latencies, 100)),
	}

	if c.Recorded != src.samples {
		m.conservation("fleet recorded %d samples, expected %d", c.Recorded, src.samples)
	}
	if c.Uploaded != c.Recorded {
		m.conservation("fleet uploaded %d of %d recorded samples", c.Uploaded, c.Recorded)
	}
	if c.Dropped != 0 {
		m.conservation("fleet dropped %d samples", c.Dropped)
	}
	if c.Failures != 0 {
		m.conservation("%d agents failed: %v", c.Failures, fleet.errs)
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
		if m.Server.Samples != c.Uploaded {
			m.conservation("server accepted %d samples, fleet uploaded %d", m.Server.Samples, c.Uploaded)
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
	return sorted[(len(sorted)*p+99)/100-1] // p >= 1, so the rank is >= 1
}

// splitList parses a comma-separated flag value, dropping spaces and empty
// entries.
func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
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
