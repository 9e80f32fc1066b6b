package faultnet_test

// The chaos soak: N agents push M batches each of a simulated device's
// samples through a faulty network at every fault mix, and the exactly-once
// delivery invariant is asserted end to end — every recorded sample reaches
// the sink exactly once, in per-device order and unaltered, with the agent's
// Uploaded/Dropped counters and the collector's DupBatches/Samples counters
// reconciling to zero loss.
// Each mix runs for several distinct seeds; because faultnet's schedule is
// deterministic, a passing (mix, seed) pair stays passing.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/faultnet"
	"smartusage/internal/obs"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
	"smartusage/internal/wal/waltest"
)

const (
	soakAgents    = 4
	soakBatches   = 8
	soakBatchSize = 5
	soakSamples   = soakBatches * soakBatchSize // per agent
)

// soakMixes enables each fault type alone, then everything at once. Mixes
// with walStall > 0 run a WAL-backed collector whose every group-commit
// fsync is stretched by that much, so acks are routinely in the
// commit-pending window when a fault fires — the regime where a group-commit
// bug (acking before the shared fsync covers your record, or losing a
// follower on leader error) would surface as a conservation failure.
var soakMixes = []struct {
	name     string
	cfg      faultnet.Config
	walStall time.Duration
}{
	// Agents redial only after a failure, so the dial fault needs a high
	// probability to fire at all within a soak run (a no-fault run makes
	// only soakAgents dials in total).
	{"dial-refuse", faultnet.Config{DialRefuse: 0.75}, 0},
	{"read-reset", faultnet.Config{ReadReset: 0.2}, 0},
	{"write-reset", faultnet.Config{WriteReset: 0.2}, 0},
	{"partial-write", faultnet.Config{PartialWrite: 0.2}, 0},
	{"read-stall", faultnet.Config{ReadStall: 0.12}, 0},
	{"write-stall", faultnet.Config{WriteStall: 0.12}, 0},
	{"ack-loss", faultnet.Config{AckLoss: 0.25}, 0},
	{"corrupt", faultnet.Config{Corrupt: 0.15}, 0},
	{"everything", faultnet.Config{
		DialRefuse: 0.08, ReadReset: 0.05, WriteReset: 0.05, PartialWrite: 0.05,
		ReadStall: 0.04, WriteStall: 0.04, AckLoss: 0.08, Corrupt: 0.05,
	}, 0},
	// Group-commit soaks: slow fsyncs force coalescing (many connections
	// parked in one commit round), then resets and ack loss kill
	// connections while their commit is pending.
	{name: "wal-group-commit", walStall: 2 * time.Millisecond},
	{"wal-commit-reset", faultnet.Config{ReadReset: 0.15, WriteReset: 0.15}, 2 * time.Millisecond},
	{"wal-commit-everything", faultnet.Config{
		DialRefuse: 0.08, ReadReset: 0.05, WriteReset: 0.05, PartialWrite: 0.05,
		ReadStall: 0.04, WriteStall: 0.04, AckLoss: 0.08, Corrupt: 0.05,
	}, 2 * time.Millisecond},
}

// deviceStore is a per-device sink for the conservation check.
type deviceStore struct {
	mu   sync.Mutex
	byID map[trace.DeviceID][]trace.Sample // arrival order
}

func (d *deviceStore) sink(s *trace.Sample) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.byID[s.Device] = append(d.byID[s.Device], *s.Clone())
	return nil
}

func TestChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, mix := range soakMixes {
		mix := mix
		t.Run(mix.name, func(t *testing.T) {
			for _, seed := range seeds {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					runSoak(t, mix.cfg, seed, mix.walStall)
				})
			}
		})
	}
}

func runSoak(t *testing.T, fcfg faultnet.Config, seed int64, walStall time.Duration) {
	// One registry spans agent, collector, and injector: the obs counters
	// must reconcile exactly with the Stats structs at the end of the run.
	reg := obs.NewRegistry()
	fcfg.Seed = seed
	fcfg.Metrics = reg
	inj := faultnet.New(fcfg)

	var walLog *wal.Log
	if walStall == 0 {
		walLog = waltest.Open(t)
	} else {
		var err error
		walLog, err = wal.Open(t.TempDir(), wal.Options{
			Policy:      wal.FsyncRecord,
			Metrics:     reg,
			MetricsName: "collector",
			Hook: func(point string) error {
				if point == "group-fsync" {
					time.Sleep(walStall)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer walLog.Close()
	}

	store := &deviceStore{byID: make(map[trace.DeviceID][]trace.Sample)}
	srv, err := collector.New(collector.Config{
		Addr:         "127.0.0.1:0",
		Token:        "soak",
		Sink:         store.sink,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		Logf:         func(string, ...any) {},
		Metrics:      reg,
		WAL:          walLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-served
	}()

	type result struct {
		dev   trace.DeviceID
		stats agent.Stats
		err   error
	}
	results := make(chan result, soakAgents)
	want := make(map[trace.DeviceID][]trace.Sample, soakAgents)
	for d := 0; d < soakAgents; d++ {
		dev := trace.DeviceID(1000*seed + int64(d) + 1)
		platform, samples := panelSamples(t, dev, soakSamples)
		want[dev] = samples
		go func() {
			a, err := agent.New(agent.Config{
				Servers:     []string{srv.Addr().String()},
				Device:      dev,
				OS:          platform,
				Token:       "soak",
				BatchSize:   soakBatchSize,
				MaxAttempts: 5,
				Backoff:     time.Millisecond,
				MaxBackoff:  8 * time.Millisecond,
				DialTimeout: time.Second,
				IOTimeout:   150 * time.Millisecond,
				Dial:        inj.Dial(nil),
				Metrics:     reg,
			})
			if err != nil {
				results <- result{dev: dev, err: err}
				return
			}
			for i := range samples {
				a.Record(&samples[i]) // auto-flushes per batch; failures stay cached
			}
			// Drain the cache through the faulty network; with fault
			// probability < 1 this converges, and the cap turns a livelock
			// into a test failure rather than a hang.
			for try := 0; a.Pending() > 0; try++ {
				if try > 2000 {
					results <- result{dev: dev, err: fmt.Errorf("device %s: %d samples still pending after %d flushes", dev, a.Pending(), try)}
					return
				}
				a.Flush()
			}
			err = a.Close()
			results <- result{dev: dev, stats: a.Stats(), err: err}
		}()
	}

	var totalUploaded, totalRecorded, totalDropped, totalRetries int64
	for i := 0; i < soakAgents; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("agent %s: %v", r.dev, r.err)
		}
		st := r.stats
		// Sample conservation per agent: recorded == uploaded + dropped.
		if st.Recorded != soakSamples || st.Dropped != 0 || st.Uploaded != soakSamples {
			t.Fatalf("agent %s stats violate conservation: %+v", r.dev, st)
		}
		totalUploaded += int64(st.Uploaded)
		totalRecorded += int64(st.Recorded)
		totalDropped += int64(st.Dropped)
		totalRetries += int64(st.Retries)

		// Exactly-once, in order: the sink holds precisely the recorded
		// samples, no duplicates, no gaps, no reordering, no field lost.
		store.mu.Lock()
		got := store.byID[r.dev]
		store.mu.Unlock()
		checkSamples(t, "sink", r.dev, got, want[r.dev])

		// The collector's per-device bookkeeping agrees with the sink.
		ds, ok := srv.Device(r.dev)
		if !ok || ds.Samples != soakSamples || ds.Sessions < 1 {
			t.Fatalf("device %s bookkeeping: %+v, ok=%v", r.dev, ds, ok)
		}
	}

	// Collector-wide reconciliation: every uploaded sample was sinked once,
	// duplicates were absorbed by dedup, nothing was lost.
	cs := srv.Stats()
	if cs.Samples.Load() != totalUploaded {
		t.Fatalf("collector sinked %d samples, agents uploaded %d", cs.Samples.Load(), totalUploaded)
	}
	if totalRecorded != totalUploaded+totalDropped {
		t.Fatalf("conservation broken: recorded %d != uploaded %d + dropped %d", totalRecorded, totalUploaded, totalDropped)
	}
	if cs.Devices.Load() != soakAgents {
		t.Fatalf("collector saw %d devices, want %d", cs.Devices.Load(), soakAgents)
	}
	if fcfg != (faultnet.Config{Seed: seed, MaxStall: fcfg.MaxStall, Metrics: reg}) && inj.Stats().Total() == 0 {
		t.Fatal("fault mix configured but no fault ever fired; the soak exercised nothing")
	}

	// Quiesce before reading counters: a connection abandoned mid-stall can
	// leave a server handler still running (and still counting) after its
	// agent has moved on. Stopping the server drains them all.
	cancel()
	<-served

	// Metrics conservation: every obs counter reconciles exactly with the
	// Stats struct incremented at the same site. A drift here means an
	// instrumented path and its Stats twin diverged.
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	for _, chk := range []struct {
		metric string
		got    int64
		want   int64
	}{
		{"agent_records_total", counter("agent_records_total"), totalRecorded},
		{"agent_uploads_total", counter("agent_uploads_total"), totalUploaded},
		{"agent_drops_total", counter("agent_drops_total"), totalDropped},
		{"agent_retries_total", counter("agent_retries_total"), totalRetries},
		{"collector_batch_frames_total", counter("collector_batch_frames_total"), cs.Batches.Load()},
		{"collector_dup_batches_total", counter("collector_dup_batches_total"), cs.DupBatches.Load()},
		{"collector_samples_total", counter("collector_samples_total"), cs.Samples.Load()},
		{"collector_auth_fails_total", counter("collector_auth_fails_total"), cs.AuthFails.Load()},
		{"collector_sink_errors_total", counter("collector_sink_errors_total"), cs.SinkErrs.Load()},
		{"collector_devices", reg.Gauge("collector_devices").Value(), cs.Devices.Load()},
	} {
		if chk.got != chk.want {
			t.Errorf("obs %s = %d, Stats twin = %d", chk.metric, chk.got, chk.want)
		}
	}
	// Batch conservation inside the collector: every received frame was
	// either absorbed as a duplicate or accepted (the sink never fails here).
	frames := counter("collector_batch_frames_total")
	dups := counter("collector_dup_batches_total")
	accepted := counter("collector_accepted_batches_total")
	if frames != dups+accepted {
		t.Errorf("batch conservation broken: frames %d != dups %d + accepted %d", frames, dups, accepted)
	}

	// WAL conservation: every accepted batch was appended exactly once
	// (dups never re-append, and with a sink that never fails no batch is
	// resumed) and every append is physically in the log. Under group commit the stalled fsyncs also actually ran as
	// group-commit rounds (never more fsyncs than appends).
	var logged int64
	if err := walLog.Replay(func(wal.LSN, byte, []byte) error { logged++; return nil }); err != nil {
		t.Fatalf("wal replay: %v", err)
	}
	if logged != accepted {
		t.Errorf("wal replay saw %d records, accepted %d batches", logged, accepted)
	}
	if walStall > 0 {
		wl := obs.L("wal", "collector")
		appends := reg.Counter("wal_appends_total", wl).Value()
		fsyncs := reg.Counter("wal_fsyncs_total", wl).Value()
		if appends != accepted {
			t.Errorf("wal appends %d != accepted batches %d", appends, accepted)
		}
		if fsyncs == 0 || fsyncs > appends {
			t.Errorf("wal fsyncs = %d with %d appends; group commit degenerated", fsyncs, appends)
		}
		if logged != appends {
			t.Errorf("wal replay saw %d records, appended %d", logged, appends)
		}
	}

	// Injected-fault counters reconcile per kind with faultnet.Stats.
	fs := inj.Stats()
	kind := func(k string) int64 { return reg.Counter("faultnet_injected_total", obs.L("kind", k)).Value() }
	for _, chk := range []struct {
		kind string
		want int64
	}{
		{"dial-refusal", fs.DialRefusals.Load()},
		{"read-reset", fs.ReadResets.Load()},
		{"write-reset", fs.WriteResets.Load()},
		{"partial-write", fs.PartialWrites.Load()},
		{"read-stall", fs.ReadStalls.Load()},
		{"write-stall", fs.WriteStalls.Load()},
		{"ack-loss", fs.AckLosses.Load()},
		{"corruption", fs.Corruptions.Load()},
	} {
		if got := kind(chk.kind); got != chk.want {
			t.Errorf("obs faultnet_injected_total{kind=%q} = %d, Stats = %d", chk.kind, got, chk.want)
		}
	}
	t.Logf("faults: %s; batches=%d dup=%d retries visible in dup count", inj.Stats(), cs.Batches.Load(), cs.DupBatches.Load())
}
