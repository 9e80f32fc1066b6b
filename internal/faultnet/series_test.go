package faultnet_test

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/faultnet"
	"smartusage/internal/obs"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// ingestSeries is every series the ingest path registers, as seriesList
// renders it. Operators' dashboards and alerts key on these names, so a
// renamed, dropped or added series must show up here as a reviewed diff.
const ingestSeries = `counter agent_abandoned_samples_total
counter agent_drops_total
counter agent_failovers_total # Switches to the next collector replica after a failure.
counter agent_flush_errors_total
counter agent_flushes_total
counter agent_records_total # Samples recorded across all agents.
counter agent_redials_total
counter agent_resumed_samples_total
counter agent_retries_total # Upload re-attempts after backoff.
counter agent_spool_errors_total
counter agent_spool_records_total # Records appended to the disk spool journal.
counter agent_tier_exhausted_total # Upload rounds in which every configured replica refused.
counter agent_uploads_total # Samples acked by the collector.
counter collector_accepted_batches_total # Batches committed (WAL + sink + dedup state).
counter collector_auth_fails_total
counter collector_batch_acks_total
counter collector_batch_bytes_total
counter collector_batch_frames_total # Batch frames received, duplicates included.
counter collector_checkpoints_total
counter collector_conn_errors_total
counter collector_conns_total
counter collector_dup_batches_total # Batch frames absorbed by dedup.
counter collector_failover_sessions_total # Hellos from agents failed over from another replica.
counter collector_recovered_batches_total
counter collector_recoveries_total # WAL recoveries completed at startup.
counter collector_resinked_samples_total
counter collector_samples_total # Samples accepted into the sink.
counter collector_sink_errors_total
counter faultnet_injected_total{kind="ack-loss"} # Faults injected, by kind.
counter faultnet_injected_total{kind="corruption"} # Faults injected, by kind.
counter faultnet_injected_total{kind="dial-refusal"} # Faults injected, by kind.
counter faultnet_injected_total{kind="partial-write"} # Faults injected, by kind.
counter faultnet_injected_total{kind="read-reset"} # Faults injected, by kind.
counter faultnet_injected_total{kind="read-stall"} # Faults injected, by kind.
counter faultnet_injected_total{kind="write-reset"} # Faults injected, by kind.
counter faultnet_injected_total{kind="write-stall"} # Faults injected, by kind.
counter wal_append_bytes_total{wal="agent_spool"} # Framed bytes appended to the write-ahead log.
counter wal_append_bytes_total{wal="collector"} # Framed bytes appended to the write-ahead log.
counter wal_appends_total{wal="agent_spool"} # Records appended to the write-ahead log.
counter wal_appends_total{wal="collector"} # Records appended to the write-ahead log.
counter wal_fsyncs_total{wal="agent_spool"} # Syncs (fsync or fdatasync) committing WAL records or sealing segments.
counter wal_fsyncs_total{wal="collector"} # Syncs (fsync or fdatasync) committing WAL records or sealing segments.
counter wal_rotations_total{wal="agent_spool"} # Segment rotations.
counter wal_rotations_total{wal="collector"} # Segment rotations.
counter wal_torn_bytes_total{wal="agent_spool"} # Torn-tail bytes truncated during open-time repair.
counter wal_torn_bytes_total{wal="collector"} # Torn-tail bytes truncated during open-time repair.
gauge collector_active_conns
gauge collector_devices
gauge collector_replica_id # This instance's index within the collector tier.
histogram agent_backoff_seconds # Backoff delays slept before retries.
histogram collector_sink_seconds # Per-sample sink call latency.
histogram wal_sync_seconds{wal="agent_spool"} # Latency of each WAL segment sync (fsync or fdatasync).
histogram wal_sync_seconds{wal="collector"} # Latency of each WAL segment sync (fsync or fdatasync).
`

// seriesList renders each series in reg as its kind, name and label set,
// followed by its metric's HELP text when it has one: no values, one series
// per line, sorted.
func seriesList(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	snap := reg.Snapshot()
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	help := map[string]string{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		}
	}
	var lines []string
	add := func(kind, name, labels string) {
		line := kind + " " + name + labels
		if h, ok := help[name]; ok {
			line += " # " + h
		}
		lines = append(lines, line)
	}
	for _, c := range snap.Counters {
		add("counter", c.Name, c.Labels)
	}
	for _, g := range snap.Gauges {
		add("gauge", g.Name, g.Labels)
	}
	for _, h := range snap.Histograms {
		add("histogram", h.Name, h.Labels)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestIngestSeriesGolden runs a few batches from one agent with a disk spool,
// dialing through a faultnet injector, into one collector replica with a
// WAL, all on one registry, and compares the series they registered with
// ingestSeries.
func TestIngestSeriesGolden(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	rep, err := collector.StartReplica(collector.ReplicaConfig{
		Server:   collector.Config{Addr: "127.0.0.1:0", Metrics: reg, Logf: func(string, ...any) {}},
		SpoolDir: filepath.Join(dir, "spool"),
		WALDir:   filepath.Join(dir, "wal"),
		WAL:      wal.Options{Policy: wal.FsyncOff, Metrics: reg, MetricsName: "collector"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(faultnet.Config{Seed: 1, Metrics: reg})
	const dev = trace.DeviceID(7)
	a, err := agent.New(agent.Config{
		Servers:   []string{rep.Server().Addr().String()},
		Device:    dev,
		OS:        trace.Android,
		BatchSize: 4,
		SpoolDir:  filepath.Join(dir, "agent"),
		Dial:      inj.Dial(nil),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		s := trace.Sample{Device: dev, OS: trace.Android, Time: int64(i) * 600, Battery: 50}
		a.Record(&s)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("collector_samples_total").Value(); got != 12 {
		t.Fatalf("collector accepted %d samples, want 12", got)
	}
	if got := seriesList(t, reg); got != ingestSeries {
		t.Errorf("ingest series changed. If intentional, update ingestSeries to:\n%s", got)
	}
}
