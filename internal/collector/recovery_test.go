package collector

// WAL recovery tests: a cold-started collector must rebuild dedup state and
// sink contents from a multi-segment log — including one torn tail record
// left by a crash mid-append — such that an agent retrying its last un-acked
// batch is accepted exactly once.

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// mkBatch builds batch id for dev with per samples whose times encode
// (batch, position) so duplicates and reorders are detectable at the sink.
func mkBatch(dev trace.DeviceID, id uint64, per int) proto.Batch {
	b := proto.Batch{BatchID: id}
	for j := 0; j < per; j++ {
		b.Samples = append(b.Samples, mkSample(dev, int(id-1)*per+j))
	}
	return b
}

// acceptBatch hands srv's accept b with the frame payload an agent would
// send for it.
func acceptBatch(srv *Server, dev trace.DeviceID, b *proto.Batch) (uint32, int64, error) {
	return srv.accept(dev, proto.AppendBatch(nil, b), b)
}

func newWALServer(t *testing.T, walDir string, sink Sink) (*Server, *wal.Log) {
	t.Helper()
	w, err := wal.Open(walDir, wal.Options{SegmentBytes: 256, Policy: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Addr: "127.0.0.1:0",
		Sink: sink,
		WAL:  w,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, w
}

func TestRecoverColdStartTornTail(t *testing.T) {
	walDir := t.TempDir()
	const dev = trace.DeviceID(42)
	const batches, per = 6, 3

	// Incarnation 1: accept six batches, then "crash" — the WAL is left
	// with a torn half-record at its tail and is never closed cleanly.
	store1 := &sampleStore{}
	srv1, w1 := newWALServer(t, walDir, store1.add)
	for id := uint64(1); id <= batches; id++ {
		b := mkBatch(dev, id, per)
		if _, _, err := acceptBatch(srv1, dev, &b); err != nil {
			t.Fatalf("accept batch %d: %v", id, err)
		}
	}
	if w1.Segments() < 2 {
		t.Fatalf("WAL spans %d segments; the test needs a multi-segment log", w1.Segments())
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err=%v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A record header claiming a 32-byte payload followed by 2 bytes: the
	// shape a kill -9 mid-append leaves behind.
	if _, err := f.Write([]byte{recBatch, 32, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// w1 is deliberately not Closed: the process is dead.

	// Incarnation 2: cold start from disk.
	store2 := &sampleStore{}
	srv2, w2 := newWALServer(t, walDir, store2.add)
	defer w2.Close()
	rec, err := srv2.recoverWAL(func([]byte) error { return nil })
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.TornBytes == 0 {
		t.Fatal("recovery did not report the torn tail record")
	}
	if rec.Checkpoint {
		t.Fatal("recovery found a checkpoint that was never written")
	}
	if rec.Batches != batches || rec.Resinked != batches*per {
		t.Fatalf("recovery replayed %d batches / %d samples, want %d / %d: %s",
			rec.Batches, rec.Resinked, batches, batches*per, rec)
	}
	if got := store2.len(); got != batches*per {
		t.Fatalf("sink holds %d samples after recovery, want %d", got, batches*per)
	}
	ds, ok := srv2.Device(dev)
	if !ok || ds.LastBatch != batches {
		t.Fatalf("dedup state not rebuilt: %+v ok=%v", ds, ok)
	}

	// The agent retries its last un-acked batch against the recovered
	// server: the retry must be absorbed (accepted exactly once overall)
	// and the HelloAck must carry the recovered high-water mark.
	if err := srv2.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv2.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", srv2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	hello := proto.Hello{Version: proto.Version, Device: dev, OS: trace.Android}
	if err := pc.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &hello)); err != nil {
		t.Fatal(err)
	}
	ft, resp, err := pc.ReadFrame()
	if err != nil || ft != proto.FrameHelloAck {
		t.Fatalf("hello ack: %v %v", ft, err)
	}
	var hack proto.HelloAck
	if err := proto.DecodeHelloAck(resp, &hack); err != nil {
		t.Fatal(err)
	}
	if hack.LastBatch != batches {
		t.Fatalf("HelloAck.LastBatch = %d, want recovered %d", hack.LastBatch, batches)
	}

	sendBatch := func(id uint64) proto.BatchAck {
		t.Helper()
		b := mkBatch(dev, id, per)
		if err := pc.WriteFrame(proto.FrameBatch, proto.AppendBatch(nil, &b)); err != nil {
			t.Fatal(err)
		}
		ft, resp, err := pc.ReadFrame()
		if err != nil || ft != proto.FrameBatchAck {
			t.Fatalf("batch ack: %v %v", ft, err)
		}
		var ack proto.BatchAck
		if err := proto.DecodeBatchAck(resp, &ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}
	if ack := sendBatch(batches); ack.Accepted != 0 {
		t.Fatalf("retried batch %d accepted %d samples after recovery; dedup state lost", batches, ack.Accepted)
	}
	if got := store2.len(); got != batches*per {
		t.Fatalf("retry double-sinked: %d samples, want %d", got, batches*per)
	}
	if ack := sendBatch(batches + 1); ack.Accepted != per {
		t.Fatalf("fresh batch accepted %d samples, want %d", ack.Accepted, per)
	}
	if got := store2.len(); got != (batches+1)*per {
		t.Fatalf("sink holds %d samples, want %d", got, (batches+1)*per)
	}
}

// readSpoolTimes reads every spool segment in order, returning sample times.
func readSpoolTimes(t *testing.T, dir string) []int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "spool-*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var times []int64
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		err = trace.NewReader(f).ReadAll(func(s *trace.Sample) error {
			times = append(times, s.Time)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatalf("read %s: %v", seg, err)
		}
	}
	return times
}

// A checkpoint couples WAL retention to sealed spool segments: recovery must
// rewind the spool to the sealed boundary and replay only the tail, so a
// crash between checkpoints neither loses nor duplicates a sample.
func TestCheckpointSpoolRestore(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	spoolDir := filepath.Join(dir, "spool")
	const dev = trace.DeviceID(7)
	const per = 4

	sp1, err := NewRotatingSpool(spoolDir, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	srv1, w1 := newWALServer(t, walDir, sp1.Sink())
	for id := uint64(1); id <= 3; id++ {
		b := mkBatch(dev, id, per)
		if _, _, err := acceptBatch(srv1, dev, &b); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := w1.Segments()
	if err := srv1.checkpoint(sp1.Seal); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if w1.Segments() >= segsBefore && segsBefore > 1 {
		t.Fatalf("checkpoint retention kept %d of %d WAL segments", w1.Segments(), segsBefore)
	}
	// Two more batches after the checkpoint, then crash: sp1 and w1 are
	// abandoned mid-flight (the active spool segment may be unflushed —
	// recovery must not depend on it).
	for id := uint64(4); id <= 5; id++ {
		b := mkBatch(dev, id, per)
		if _, _, err := acceptBatch(srv1, dev, &b); err != nil {
			t.Fatal(err)
		}
	}

	sp2, err := NewRotatingSpool(spoolDir, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	srv2, w2 := newWALServer(t, walDir, sp2.Sink())
	defer w2.Close()
	rec, err := srv2.recoverWAL(sp2.Restore)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !rec.Checkpoint {
		t.Fatal("recovery missed the checkpoint")
	}
	if rec.Batches != 2 || rec.Resinked != 2*per {
		t.Fatalf("recovery replayed %d batches / %d samples, want 2 / %d: %s", rec.Batches, rec.Resinked, 2*per, rec)
	}

	// A retry of the last batch dedups; the next fresh batch lands.
	dup := mkBatch(dev, 5, per)
	if n, _, err := acceptBatch(srv2, dev, &dup); err != nil || n != 0 {
		t.Fatalf("retried batch accepted %d samples (err=%v)", n, err)
	}
	fresh := mkBatch(dev, 6, per)
	if n, _, err := acceptBatch(srv2, dev, &fresh); err != nil || n != per {
		t.Fatalf("fresh batch accepted %d samples (err=%v)", n, err)
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}

	times := readSpoolTimes(t, spoolDir)
	if len(times) != 6*per {
		t.Fatalf("spool holds %d samples, want %d", len(times), 6*per)
	}
	for i, ts := range times {
		if want := int64(1_000_000 + i*600); ts != want {
			t.Fatalf("spool position %d holds time %d, want %d (loss, duplicate, or reorder)", i, ts, want)
		}
	}
}

// A checkpoint cut between a partial-sink failure and its resume snapshots
// the partial cursor and seals the prefix into the spool. The resume is
// acked, so its agent never sends the batch again: the resumed samples must
// survive a crash before the next checkpoint, which they can only do from a
// WAL record past the checkpoint.
func TestPartialResumeAcrossCheckpointSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	walDir, spoolDir := filepath.Join(dir, "wal"), filepath.Join(dir, "spool")
	const dev, per = trace.DeviceID(9), 6
	sp1, err := NewRotatingSpool(spoolDir, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	failAt := -1 // sink call, counted from 0, to fail once
	sink := sp1.Sink()
	srv1, _ := newWALServer(t, walDir, func(s *trace.Sample) error {
		if failAt == 0 {
			failAt = -1
			return errors.New("injected sink failure")
		}
		failAt--
		return sink(s)
	})
	b1, b2 := mkBatch(dev, 1, per), mkBatch(dev, 2, per)
	if _, _, err := acceptBatch(srv1, dev, &b1); err != nil {
		t.Fatal(err)
	}
	failAt = 2
	if _, _, err := acceptBatch(srv1, dev, &b2); err == nil {
		t.Fatal("batch 2 survived its injected sink failure")
	}
	if err := srv1.checkpoint(sp1.Seal); err != nil {
		t.Fatal(err)
	}
	if n, _, err := acceptBatch(srv1, dev, &b2); err != nil || n != per-2 {
		t.Fatalf("resume accepted %d samples (err=%v), want %d", n, err, per-2)
	}
	// Crash: sp1 and the WAL are abandoned.

	sp2, err := NewRotatingSpool(spoolDir, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	srv2, w2 := newWALServer(t, walDir, sp2.Sink())
	defer w2.Close()
	rec, err := srv2.recoverWAL(sp2.Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Resinked != per-2 {
		t.Errorf("recovery re-sinked %d samples, want the %d the resume sinked", rec.Resinked, per-2)
	}
	times := readSpoolTimes(t, spoolDir)
	if len(times) != 2*per {
		t.Fatalf("spool holds %d samples after recovery, want %d", len(times), 2*per)
	}
	for i, ts := range times {
		if want := int64(1_000_000 + i*600); ts != want {
			t.Fatalf("spool position %d holds time %d, want %d (loss, duplicate, or reorder)", i, ts, want)
		}
	}
	if ds, _ := srv2.Device(dev); ds.LastBatch != 2 || ds.Samples != 2*per {
		t.Fatalf("recovered device state %+v, want batch 2 and %d samples", ds, 2*per)
	}
}
