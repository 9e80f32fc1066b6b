package collector

// Replica lifecycle tests: a clean drain leaves nothing to replay, a kill
// leaves exactly the batches acked since the last checkpoint, an expired
// drain skips the final checkpoint, and health reads recovering for the
// whole replay. The churn test (churn_test.go) covers descriptor and WAL
// segment bounds across many replica restarts.

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"smartusage/internal/obs"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

const replicaPer = 3 // samples per batch

// startTestReplica starts a WAL-backed replica on dir with cfg's server
// timeouts, sink wrapper and health; no periodic checkpoints, so the only
// checkpoint is a clean Drain's.
func startTestReplica(t *testing.T, dir string, cfg ReplicaConfig) *Replica {
	t.Helper()
	cfg.Server.Addr = "127.0.0.1:0"
	cfg.Server.Logf = func(string, ...any) {}
	cfg.SpoolDir, cfg.SpoolBytes = filepath.Join(dir, "spool"), 1<<10
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.WAL = wal.Options{SegmentBytes: 1 << 10, Policy: wal.FsyncRecord}
	rep, err := StartReplica(cfg)
	if err != nil {
		t.Fatalf("start replica: %v", err)
	}
	return rep
}

// uploadBatches sends batches first..last of dev on one session and checks
// that each is acked in full.
func uploadBatches(t *testing.T, rep *Replica, dev trace.DeviceID, first, last uint64) {
	t.Helper()
	conn, pc := rawSession(t, rep.Server().Addr().String(), dev)
	defer conn.Close()
	for id := first; id <= last; id++ {
		b := mkBatch(dev, id, replicaPer)
		if err := pc.WriteFrame(proto.FrameBatch, proto.AppendBatch(nil, &b)); err != nil {
			t.Fatal(err)
		}
		ft, resp, err := pc.ReadFrame()
		if err != nil || ft != proto.FrameBatchAck {
			t.Fatalf("batch %d ack: %v %v", id, ft, err)
		}
		var ack proto.BatchAck
		if err := proto.DecodeBatchAck(resp, &ack); err != nil || ack.Accepted != replicaPer {
			t.Fatalf("batch %d: %d samples accepted (err %v), want %d", id, ack.Accepted, err, replicaPer)
		}
	}
}

// checkSpool asserts the spool under dir holds the first n samples of dev's
// batches, each once and in order.
func checkSpool(t *testing.T, dir string, n int) {
	t.Helper()
	times := readSpoolTimes(t, filepath.Join(dir, "spool"))
	if len(times) != n {
		t.Fatalf("spool holds %d samples, want %d", len(times), n)
	}
	for i, ts := range times {
		if want := mkSample(0, i).Time; ts != want {
			t.Fatalf("spool position %d holds time %d, want %d (loss, duplicate, or reorder)", i, ts, want)
		}
	}
}

// spoolFiles maps each spool segment under dir to its bytes.
func spoolFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "spool", "spool-*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(segs))
	for _, seg := range segs {
		if files[seg], err = os.ReadFile(seg); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestReplicaCleanDrainReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	rep := startTestReplica(t, dir, ReplicaConfig{})
	uploadBatches(t, rep, 5, 1, 4)
	if err := rep.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := spoolFiles(t, dir)

	rep = startTestReplica(t, dir, ReplicaConfig{})
	if rec := rep.Recovery(); !rec.Checkpoint || rec.Batches != 0 || rec.Resinked != 0 {
		t.Fatalf("restart after a clean drain replayed past its final checkpoint: %s", rec)
	}
	if err := rep.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := spoolFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("restart changed the spool: %d segments before, %d after", len(before), len(after))
	}
	checkSpool(t, dir, 4*replicaPer)
}

func TestReplicaKillReplaysBatchesPastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const dev = trace.DeviceID(6)
	rep := startTestReplica(t, dir, ReplicaConfig{})
	uploadBatches(t, rep, dev, 1, 2)
	if err := rep.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Three more batches, acked past the checkpoint the drain cut, then
	// the process dies.
	rep = startTestReplica(t, dir, ReplicaConfig{})
	uploadBatches(t, rep, dev, 3, 5)
	rep.Kill()

	rep = startTestReplica(t, dir, ReplicaConfig{})
	if rec := rep.Recovery(); !rec.Checkpoint || rec.Batches != 3 || rec.Resinked != 3*replicaPer {
		t.Fatalf("recovery replayed %d batches / %d samples, want 3 / %d: %s", rec.Batches, rec.Resinked, 3*replicaPer, rec)
	}
	if err := rep.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkSpool(t, dir, 5*replicaPer)
}

func TestReplicaExpiredDrainSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const dev = trace.DeviceID(7)
	rep := startTestReplica(t, dir, ReplicaConfig{Server: Config{ReadTimeout: 10 * time.Second}})
	uploadBatches(t, rep, dev, 1, 2)

	// A silent connection holds the drain past its deadline once accepted:
	// its handler then waits out the read timeout for a hello.
	conn, err := net.Dial("tcp", rep.Server().Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for rep.Server().Stats().Conns.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := rep.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a live session returned %v, want the deadline", err)
	}
	conn.Close()
	<-rep.Done()

	rep = startTestReplica(t, dir, ReplicaConfig{})
	if rec := rep.Recovery(); rec.Checkpoint || rec.Batches != 2 {
		t.Fatalf("an expired drain cut a checkpoint: %s", rec)
	}
	if err := rep.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkSpool(t, dir, 2*replicaPer)
}

func TestReplicaHealthRecoveringDuringReplay(t *testing.T) {
	dir := t.TempDir()
	rep := startTestReplica(t, dir, ReplicaConfig{})
	uploadBatches(t, rep, 8, 1, 2)
	rep.Kill()

	// Recovery re-sinks on the goroutine that starts the replica, so the
	// observations need no lock.
	health := &obs.Health{}
	var during []bool
	wrap := func(next Sink) Sink {
		return func(s *trace.Sample) error {
			during = append(during, health.Recovering())
			return next(s)
		}
	}
	rep = startTestReplica(t, dir, ReplicaConfig{WrapSink: wrap, Health: health})
	if len(during) != 2*replicaPer {
		t.Fatalf("recovery re-sank %d samples, want %d", len(during), 2*replicaPer)
	}
	for i, recovering := range during {
		if !recovering {
			t.Fatalf("health was not recovering at re-sunk sample %d", i)
		}
	}
	if health.Recovering() || health.Draining() {
		t.Fatalf("serving replica reads recovering=%v draining=%v", health.Recovering(), health.Draining())
	}
	if err := rep.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !health.Draining() {
		t.Fatal("drained replica's health does not read draining")
	}
}
