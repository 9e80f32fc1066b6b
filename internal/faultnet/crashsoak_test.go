package faultnet_test

// The kill-restart chaos soak: agents push batches into a WAL-backed
// collector while a CrashPlan kills the collector at a chosen point in the
// durability pipeline (mid-WAL-append with a torn record, pre-fsync,
// pre-sink, pre-ack) — or the agents themselves are killed and rebuilt from
// their disk spools. The collector is then cold-started from its WAL and
// spool directory, the agents retry through the outage, and the end state is
// asserted exactly-once: every recorded sample (a simulated device's)
// appears in the spool exactly once, in per-device order and unaltered.
// Runs under -race; every (point, seed) pair is deterministic in its crash
// trigger, so a passing pair stays passing.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/faultnet"
	"smartusage/internal/obs"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

const (
	crashAgents     = 3
	crashBatchSize  = 4
	crashBatches    = 6
	crashSamples    = crashBatchSize * crashBatches // per agent
	crashDrainTries = 5000
)

func TestCrashRestartSoak(t *testing.T) {
	points := []string{
		faultnet.CrashWALAppend,
		faultnet.CrashPreFsync,
		faultnet.CrashPreSink,
		faultnet.CrashPreAck,
		faultnet.CrashAgentKill,
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			for _, seed := range seeds {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					runCrashSoak(t, point, seed)
				})
			}
		})
	}
}

// startReplica cold-starts one collector incarnation on dir's spool and
// WAL: open the WAL (repairing any torn tail), recover dedup and sink
// state, serve, and checkpoint every 10ms. srv places the incarnation: its
// token, tier position, and a Listener to adopt or else an Addr to bind
// (":0" picks a port; a fixed one is retried while a killed predecessor's
// socket drains). hook is the crash plan for this incarnation — nil for
// one that must survive.
func startReplica(t *testing.T, dir string, srv collector.Config, hook func(string) error, reg *obs.Registry) *collector.Replica {
	t.Helper()
	if srv.Listener == nil {
		var err error
		for i := 0; i < 100; i++ {
			if srv.Listener, err = net.Listen("tcp", srv.Addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("listen %s: %v", srv.Addr, err)
		}
	}
	srv.ReadTimeout, srv.WriteTimeout = 200*time.Millisecond, 200*time.Millisecond
	srv.Hook, srv.Metrics = hook, reg
	srv.Logf = func(string, ...any) {}
	rep, err := collector.StartReplica(collector.ReplicaConfig{
		Server:          srv,
		SpoolDir:        filepath.Join(dir, "spool"),
		SpoolBytes:      2 << 10,
		WALDir:          filepath.Join(dir, "wal"),
		WAL:             wal.Options{SegmentBytes: 4 << 10, Policy: wal.FsyncRecord, Hook: hook, Metrics: reg},
		CheckpointEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start replica: %v", err)
	}
	return rep
}

func runCrashSoak(t *testing.T, point string, seed int64) {
	dir := t.TempDir()

	// One registry spans every incarnation, like a metrics backend outliving
	// the scraped processes: recovery counters accumulate across cold starts
	// and must reconcile with the summed Recovery reports at the end.
	reg := obs.NewRegistry()
	serverCrash := point != faultnet.CrashAgentKill
	plan := faultnet.NewCrashPlan(point, int(2+seed))
	var hook func(string) error
	if serverCrash {
		hook = plan.Check
	}
	srv := collector.Config{Addr: "127.0.0.1:0", Token: "crash"}
	inc1 := startReplica(t, dir, srv, hook, reg)
	addr := inc1.Server().Addr().String()

	type result struct {
		dev trace.DeviceID
		err error
	}
	results := make(chan result, crashAgents)
	want := make(map[trace.DeviceID][]trace.Sample, crashAgents)
	for d := 0; d < crashAgents; d++ {
		dev := trace.DeviceID(9000*seed + int64(d) + 1)
		platform, samples := panelSamples(t, dev, crashSamples)
		want[dev] = samples
		go func() {
			results <- result{dev: dev, err: runCrashAgent(dir, addr, dev, platform, samples, point, reg)}
		}()
	}

	// For server-crash points: wait for the kill, tear the incarnation down
	// (Kill abandons its WAL and spool as a dead process would leave them —
	// no Close, no flush), and cold-start a successor on the same address.
	// The agents retry through the outage.
	var inc2 *collector.Replica
	if serverCrash {
		select {
		case <-plan.Fired():
		case <-time.After(20 * time.Second):
			t.Fatal("crash point never fired; the soak exercised nothing")
		}
		inc1.Kill()
		srv.Addr = addr
		inc2 = startReplica(t, dir, srv, nil, reg)
		if point == faultnet.CrashWALAppend && inc2.Recovery().TornBytes == 0 {
			t.Error("wal-append crash left no torn tail record to repair")
		}
	}

	for i := 0; i < crashAgents; i++ {
		if r := <-results; r.err != nil {
			t.Fatalf("agent %s: %v", r.dev, r.err)
		}
	}

	final := inc2
	if final == nil {
		final = inc1
	}
	if err := final.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly-once, in order, at the durable sink: read back every spool
	// segment and check each device's samples are precisely what its agent
	// recorded — no loss, no duplicate, no reorder, no field lost, across
	// the kill.
	byDev := make(map[trace.DeviceID][]trace.Sample)
	segs, err := filepath.Glob(filepath.Join(dir, "spool", "spool-*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		err = trace.NewReader(f).ReadAll(func(s *trace.Sample) error {
			byDev[s.Device] = append(byDev[s.Device], *s.Clone())
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatalf("read %s: %v", seg, err)
		}
	}
	if len(byDev) != crashAgents {
		t.Fatalf("spool holds %d devices, want %d", len(byDev), crashAgents)
	}
	for dev, got := range byDev {
		checkSamples(t, "spool", dev, got, want[dev])
	}

	// Metrics conservation across the kill: the registry outlived every
	// incarnation, so its recovery counters must equal the summed Recovery
	// reports, and the torn-tail byte counter must match what the WAL
	// repaired. On the agent side, Record is called exactly crashSamples
	// times per device no matter where the kill landed.
	recs := []*collector.Recovery{inc1.Recovery()}
	if inc2 != nil {
		recs = append(recs, inc2.Recovery())
	}
	var wantBatches, wantResinked, wantTorn int64
	for _, r := range recs {
		wantBatches += r.Batches
		wantResinked += r.Resinked
		wantTorn += r.TornBytes
	}
	counter := func(name string, ls ...obs.Label) int64 { return reg.Counter(name, ls...).Value() }
	for _, chk := range []struct {
		metric string
		got    int64
		want   int64
	}{
		{"collector_recoveries_total", counter("collector_recoveries_total"), int64(len(recs))},
		{"collector_recovered_batches_total", counter("collector_recovered_batches_total"), wantBatches},
		{"collector_resinked_samples_total", counter("collector_resinked_samples_total"), wantResinked},
		{"wal_torn_bytes_total", counter("wal_torn_bytes_total", obs.L("wal", "wal")), wantTorn},
		{"agent_records_total", counter("agent_records_total"), int64(crashAgents * crashSamples)},
	} {
		if chk.got != chk.want {
			t.Errorf("obs %s = %d, want %d", chk.metric, chk.got, chk.want)
		}
	}
	if point == faultnet.CrashAgentKill && counter("agent_resumed_samples_total") == 0 {
		t.Error("agent-kill point resumed nothing from the spool; obs agent_resumed_samples_total stayed 0")
	}
}

// runCrashAgent records samples through the faulty world, draining with
// retries until everything is uploaded. For the agent-kill point the agent
// object is dropped mid-campaign (journal never closed) and rebuilt from its
// spool directory.
func runCrashAgent(dir, addr string, dev trace.DeviceID, platform trace.OS, samples []trace.Sample, point string, reg *obs.Registry) error {
	cfg := agent.Config{
		Servers:     []string{addr},
		Device:      dev,
		OS:          platform,
		Token:       "crash",
		BatchSize:   crashBatchSize,
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		DialTimeout: time.Second,
		IOTimeout:   150 * time.Millisecond,
		SpoolDir:    filepath.Join(dir, "agents", dev.String()),
		Metrics:     reg,
	}
	a, err := agent.New(cfg)
	if err != nil {
		return err
	}
	record := func(i int) { a.Record(&samples[i]) }
	killAt := crashSamples // never, unless this is the agent-kill point
	if point == faultnet.CrashAgentKill {
		// Two samples past the last auto-flush boundary, so the kill
		// happens with unflushed samples in the journal.
		killAt = crashSamples - crashBatchSize + 2
	}
	for i := 0; i < killAt; i++ {
		record(i)
	}
	if killAt < crashSamples {
		pending := a.Pending()
		// Kill: drop the agent without Close, rebuild from the spool.
		a, err = agent.New(cfg)
		if err != nil {
			return err
		}
		if got := a.Stats().Resumed; got != pending {
			return fmt.Errorf("resumed %d samples from the spool, want %d", got, pending)
		}
		for i := killAt; i < crashSamples; i++ {
			record(i)
		}
	}
	for try := 0; a.Pending() > 0; try++ {
		if try > crashDrainTries {
			return fmt.Errorf("%d samples still pending after %d flushes", a.Pending(), try)
		}
		a.Flush()
		time.Sleep(time.Millisecond)
	}
	return a.Close()
}
