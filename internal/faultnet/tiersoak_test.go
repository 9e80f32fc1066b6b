package faultnet_test

// The multi-collector failover soak: agents configured with the whole
// replica tier push batches while a TierPlan kills entire collector
// instances — first the rendezvous primary of a device guaranteed to carry
// traffic, then, once traffic has failed over, the failover target itself —
// at a chosen point in the durability pipeline. Each killed replica is
// cold-restarted from its own WAL and spool. The end state is asserted
// exactly-once across the tier: the tiermerge union of the per-replica
// spools holds every recorded sample (a simulated device's) exactly once,
// in per-device order and unaltered, and is DeepEqual to the spool of a
// fault-free single-collector run of the identical workload. Obs counters spanning every incarnation must
// reconcile: zero lost, zero double-sunk. Runs under -race.

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/faultnet"
	"smartusage/internal/obs"
	"smartusage/internal/tiermerge"
	"smartusage/internal/trace"
)

const (
	tierReplicas  = 3
	tierAgents    = 4
	tierBatchSize = 4
	tierBatches   = 6
	tierSamples   = tierBatchSize * tierBatches // per agent
)

func TestTierFailoverSoak(t *testing.T) {
	points := []string{
		faultnet.CrashWALAppend,
		faultnet.CrashPreFsync,
		faultnet.CrashPreSink,
		faultnet.CrashPreAck,
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
					runTierSoak(t, point, seed)
				})
			}
		})
	}
}

func waitTierKill(t *testing.T, plan *faultnet.TierPlan, i int) {
	t.Helper()
	select {
	case <-plan.Fired(i):
	case <-time.After(20 * time.Second):
		t.Fatalf("tier kill %d never fired; the soak exercised nothing", i)
	}
}

// mergeSpools unions replica spool directories and returns the deduplicated
// stream plus merge stats, failing the test on double-sinks or conflicts.
func mergeSpools(t *testing.T, dirs []string) ([]trace.Sample, *tiermerge.Stats) {
	t.Helper()
	var out []trace.Sample
	st, err := tiermerge.MergeDirs(dirs, func(s *trace.Sample) error {
		out = append(out, *s.Clone())
		return nil
	})
	if err != nil {
		t.Fatalf("tiermerge: %v", err)
	}
	return out, st
}

func runTierSoak(t *testing.T, point string, seed int64) {
	dir := t.TempDir()

	// One registry spans the whole tier and every incarnation of it, like a
	// metrics backend outliving the scraped processes. The collector and WAL
	// counters are unlabeled aggregates, so they sum tier-wide on their own.
	reg := obs.NewRegistry()

	// Bind the tier's listeners first: the kill schedule needs the addresses
	// to decide, via the same rendezvous hash the agents use, which replica
	// carries device 0's traffic (kill one) and where that traffic fails
	// over to (kill two).
	addrs := make([]string, tierReplicas)
	liss := make([]net.Listener, tierReplicas)
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		liss[i] = lis
		addrs[i] = lis.Addr().String()
	}
	devs := make([]trace.DeviceID, tierAgents)
	for d := range devs {
		devs[d] = trace.DeviceID(9100*seed + int64(d) + 1)
	}
	prefs := agent.ReplicaPreference(devs[0], addrs)
	idx := func(addr string) int {
		for i, a := range addrs {
			if a == addr {
				return i
			}
		}
		t.Fatalf("address %s not in tier", addr)
		return -1
	}
	kill1, kill2 := idx(prefs[0]), idx(prefs[1])

	// Kill one fires within device 0's first 2+seed batches on its primary
	// (it may fire on a peer's traffic even sooner); device 0 then still has
	// batches to upload, so its failover guarantees kill two's single hit.
	plan := faultnet.NewTierPlan(
		faultnet.TierKill{Replica: kill1, Point: point, Hit: int(2 + seed)},
		faultnet.TierKill{Replica: kill2, Point: point, Hit: 1},
	)

	replicaDir := func(r int) string { return filepath.Join(dir, fmt.Sprintf("replica%d", r)) }
	place := func(r int) collector.Config {
		return collector.Config{Addr: addrs[r], Token: "tier", ReplicaID: r, TierReplicas: tierReplicas}
	}
	incs := make([]*collector.Replica, tierReplicas)
	recs := make([]*collector.Recovery, 0, tierReplicas+2)
	for r := range incs {
		srv := place(r)
		srv.Listener = liss[r]
		incs[r] = startReplica(t, replicaDir(r), srv, plan.Hook(r), reg)
		recs = append(recs, incs[r].Recovery())
	}

	type result struct {
		dev trace.DeviceID
		err error
	}
	results := make(chan result, tierAgents)
	want := make(map[trace.DeviceID][]trace.Sample, tierAgents)
	for d := 0; d < tierAgents; d++ {
		dev := devs[d]
		platform, samples := panelSamples(t, dev, tierSamples)
		want[dev] = samples
		go func() {
			results <- result{dev: dev, err: runTierAgent(filepath.Join(dir, "agents"), addrs, dev, platform, samples, reg)}
		}()
	}

	// Kill one: device 0's primary dies mid-pipeline; cold-restart it on the
	// same address while the agents fail over.
	waitTierKill(t, plan, 0)
	incs[kill1].Kill()
	incs[kill1] = startReplica(t, replicaDir(kill1), place(kill1), plan.Hook(kill1), reg)
	recs = append(recs, incs[kill1].Recovery())

	// Kill two: the replica the traffic failed over to dies as well.
	waitTierKill(t, plan, 1)
	incs[kill2].Kill()
	incs[kill2] = startReplica(t, replicaDir(kill2), place(kill2), plan.Hook(kill2), reg)
	recs = append(recs, incs[kill2].Recovery())

	for i := 0; i < tierAgents; i++ {
		if r := <-results; r.err != nil {
			t.Fatalf("agent %s: %v", r.dev, r.err)
		}
	}
	tierDirs := make([]string, tierReplicas)
	for r, inc := range incs {
		if err := inc.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		tierDirs[r] = filepath.Join(replicaDir(r), "spool")
	}

	// Exactly-once conservation across the tier: the merged union holds each
	// recorded sample once, in per-device time order. MergeDirs itself
	// enforces zero-double-sunk — an intra-replica duplicate fails the merge.
	merged, st := mergeSpools(t, tierDirs)
	if st.Unique != tierAgents*tierSamples {
		t.Fatalf("tiermerge found %d unique samples, want %d (stats %+v)", st.Unique, tierAgents*tierSamples, st)
	}
	byDev := make(map[trace.DeviceID][]trace.Sample)
	for i := range merged {
		byDev[merged[i].Device] = append(byDev[merged[i].Device], merged[i])
	}
	if len(byDev) != tierAgents {
		t.Fatalf("merged stream holds %d devices, want %d", len(byDev), tierAgents)
	}
	for dev, got := range byDev {
		checkSamples(t, "merge", dev, got, want[dev])
	}

	// The tier must be invisible downstream: the same deterministic workload
	// through one fault-free collector yields a spool whose merge is
	// DeepEqual to the chaos run's.
	baseline := runBaselineCampaign(t, filepath.Join(dir, "baseline"), devs)
	if !reflect.DeepEqual(merged, baseline) {
		t.Fatal("tiermerged campaign differs from the single-collector baseline")
	}

	// Obs conservation across every incarnation: the shared registry's
	// recovery counters equal the summed Recovery reports, the agents
	// recorded and were acked for exactly the workload, and both sides saw
	// actual failover.
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
		{"agent_records_total", counter("agent_records_total"), int64(tierAgents * tierSamples)},
		{"agent_uploads_total", counter("agent_uploads_total"), int64(tierAgents * tierSamples)},
	} {
		if chk.got != chk.want {
			t.Errorf("obs %s = %d, want %d", chk.metric, chk.got, chk.want)
		}
	}
	if counter("agent_failovers_total") == 0 {
		t.Error("no agent ever failed over; the tier kills exercised nothing")
	}
	if counter("collector_failover_sessions_total") == 0 {
		t.Error("no replica counted a failover session")
	}
	if point == faultnet.CrashWALAppend && wantTorn == 0 {
		t.Error("wal-append kills left no torn tail record to repair")
	}
}

// runBaselineCampaign runs the identical workload — same devices, same
// samples — through one fault-free collector under its own registry and
// returns its spool's merged stream.
func runBaselineCampaign(t *testing.T, dir string, devs []trace.DeviceID) []trace.Sample {
	t.Helper()
	reg := obs.NewRegistry()
	base := startReplica(t, dir, collector.Config{Addr: "127.0.0.1:0", Token: "tier", TierReplicas: 1}, nil, reg)
	addr := base.Server().Addr().String()
	errs := make(chan error, len(devs))
	for _, dev := range devs {
		dev := dev
		platform, samples := panelSamples(t, dev, tierSamples)
		go func() {
			errs <- runTierAgent(filepath.Join(dir, "agents"), []string{addr}, dev, platform, samples, reg)
		}()
	}
	for range devs {
		if err := <-errs; err != nil {
			t.Fatalf("baseline agent: %v", err)
		}
	}
	if err := base.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	merged, _ := mergeSpools(t, []string{filepath.Join(dir, "spool")})
	return merged
}

// runTierAgent records samples through the faulty tier, draining with
// retries until everything is uploaded.
func runTierAgent(spoolRoot string, servers []string, dev trace.DeviceID, platform trace.OS, samples []trace.Sample, reg *obs.Registry) error {
	a, err := agent.New(agent.Config{
		Servers:     servers,
		Device:      dev,
		OS:          platform,
		Token:       "tier",
		BatchSize:   tierBatchSize,
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		DialTimeout: time.Second,
		IOTimeout:   150 * time.Millisecond,
		SpoolDir:    filepath.Join(spoolRoot, dev.String()),
		Metrics:     reg,
	})
	if err != nil {
		return err
	}
	for i := range samples {
		a.Record(&samples[i])
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
