package collector

// Regression and hardening tests for the upload path: atomic batch
// validation, exactly-once resume across sink failures, durable acks of
// duplicates, write deadlines against stalled peers, and the per-frame size
// cap.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/faultnet"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
	"smartusage/internal/wal/waltest"
)

// rawSession dials addr and completes the hello handshake for dev.
func rawSession(t *testing.T, addr string, dev trace.DeviceID) (net.Conn, *proto.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	hello := proto.Hello{Version: proto.Version, Device: dev, OS: trace.Android}
	if err := pc.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &hello)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := pc.ReadFrame(); err != nil || ft != proto.FrameHelloAck {
		t.Fatalf("hello ack: %v %v", ft, err)
	}
	return conn, pc
}

// A batch poisoned mid-way must be rejected atomically: no prefix of it may
// reach the sink, because the unacked batch will be retried and a spooled
// prefix would then be sinked twice. This is the regression test for the
// old per-sample accept loop, which sinked samples before validating the
// rest of the batch.
func TestPoisonedMidBatchRejectedAtomically(t *testing.T) {
	srv, addr, store, stop := startServer(t, "")
	defer stop()

	conn, pc := rawSession(t, addr, 8)
	defer conn.Close()

	samples := []trace.Sample{mkSample(8, 0), mkSample(8, 1), mkSample(8, 2)}
	samples[1].Battery = 200 // poisoned: fails Validate, not the decoder
	batch := proto.Batch{BatchID: 1, Samples: samples}
	if err := pc.WriteFrame(proto.FrameBatch, proto.AppendBatch(nil, &batch)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := pc.ReadFrame(); err == nil && ft != proto.FrameError {
		t.Fatalf("poisoned batch answered with %s, want error frame or teardown", ft)
	}
	if store.len() != 0 {
		t.Fatalf("%d samples of a poisoned batch were sinked", store.len())
	}

	// The agent retries the batch (same ID, samples fixed) on a fresh
	// connection; it must be accepted in full, with no duplicated prefix.
	conn2, pc2 := rawSession(t, addr, 8)
	defer conn2.Close()
	batch.Samples[1].Battery = 80
	if err := pc2.WriteFrame(proto.FrameBatch, proto.AppendBatch(nil, &batch)); err != nil {
		t.Fatal(err)
	}
	ft, resp, err := pc2.ReadFrame()
	if err != nil || ft != proto.FrameBatchAck {
		t.Fatalf("retry ack: %v %v", ft, err)
	}
	var ack proto.BatchAck
	if err := proto.DecodeBatchAck(resp, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 3 {
		t.Fatalf("retry accepted %d, want 3", ack.Accepted)
	}
	if store.len() != 3 {
		t.Fatalf("store holds %d samples, want exactly 3", store.len())
	}
	if srv.Stats().Samples.Load() != 3 {
		t.Fatalf("samples counter %d", srv.Stats().Samples.Load())
	}
}

// A sink that fails mid-batch must not lose or duplicate samples: the
// server records how far the batch got and the agent's retry resumes at
// the first unsinked sample.
func TestFlakySinkResumesExactlyOnce(t *testing.T) {
	store := &sampleStore{}
	calls, failed := 0, false
	sink := func(s *trace.Sample) error {
		calls++
		if calls == 3 && !failed {
			failed = true
			return fmt.Errorf("injected sink failure")
		}
		return store.add(s)
	}
	srv, err := New(Config{
		WAL:         waltest.Open(t),
		Addr:        "127.0.0.1:0",
		Sink:        sink,
		ReadTimeout: time.Second,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	a, err := agent.New(agent.Config{
		Servers: []string{srv.Addr().String()}, Device: 11, OS: trace.Android,
		BatchSize: 1 << 30, MaxAttempts: 3,
		Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s := mkSample(11, i)
		a.Record(&s)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("flush after sink recovery: %v", err)
	}
	a.Close()
	store.mu.Lock()
	got := append([]trace.Sample(nil), store.samples...)
	store.mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("sinked %d samples, want exactly 5 (no loss, no duplicated prefix)", len(got))
	}
	for i := range got {
		if got[i].Time != int64(1_000_000+i*600) {
			t.Fatalf("sink position %d holds time %d", i, got[i].Time)
		}
	}
	if srv.Stats().SinkErrs.Load() != 1 {
		t.Fatalf("sink errors %d, want 1", srv.Stats().SinkErrs.Load())
	}
	ds, ok := srv.Device(11)
	if !ok || ds.Samples != 5 {
		t.Fatalf("device bookkeeping %+v", ds)
	}
}

// A peer that stops draining our writes must be disconnected by the write
// deadline instead of pinning its connection slot until the stall ends.
func TestWriteDeadlineUnsticksStalledPeer(t *testing.T) {
	inj := faultnet.New(faultnet.Config{Seed: 1, WriteStall: 1, MaxStall: 30 * time.Second})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		WAL:          waltest.Open(t),
		Listener:     inj.Listener(inner),
		Sink:         (&sampleStore{}).add,
		ReadTimeout:  time.Second,
		WriteTimeout: 100 * time.Millisecond,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	hello := proto.Hello{Version: proto.Version, Device: 3, OS: trace.Android}
	if err := pc.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &hello)); err != nil {
		t.Fatal(err)
	}
	// The server's hello-ack write stalls; the write deadline must tear
	// the connection down long before the 30 s stall would end.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := pc.ReadFrame(); err == nil {
		t.Fatal("stalled server still delivered a frame")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection held for %v; write deadline did not fire", elapsed)
	}
	if inj.Stats().WriteStalls.Load() == 0 {
		t.Fatal("stall never injected; test is vacuous")
	}
}

// Frames above the configured per-frame cap must tear the connection down
// before the payload is read into memory.
func TestFrameSizeCapEnforced(t *testing.T) {
	store := &sampleStore{}
	srv, err := New(Config{
		WAL:           waltest.Open(t),
		Addr:          "127.0.0.1:0",
		Sink:          store.add,
		MaxFrameBytes: 1 << 10,
		ReadTimeout:   time.Second,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	if err := pc.WriteFrame(proto.FrameHello, make([]byte, 2<<10)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		// Any response other than teardown means the oversized frame was
		// processed; drain to confirm the close.
		t.Log("server wrote before closing; checking for teardown")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Errors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Stats().Errors.Load() == 0 {
		t.Fatal("oversized frame not rejected")
	}
	if store.len() != 0 {
		t.Fatal("oversized frame reached the sink")
	}
}

// A duplicate of a batch whose WAL record still waits on its group-commit
// round must not be acked before that round: its ack would tell the agent
// the batch is delivered while no sync covers it. Session one uploads batch
// 1 and its round parks at the group-fsync hook; session two sends the same
// batch. Neither may be acked while the round is parked; both are acked
// when it succeeds, and neither when it fails.
func TestDuplicateAckWaitsForOriginalRound(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict error
	}{
		{"round succeeds", nil},
		{"round fails", errors.New("injected fsync failure")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parked, ended := make(chan struct{}), make(chan struct{})
			release := make(chan error)
			var once sync.Once
			hook := func(point string) error {
				if point != "group-fsync" {
					return nil
				}
				var verdict error
				once.Do(func() {
					close(parked)
					select {
					case verdict = <-release:
					case <-ended: // the test failed first; unpark
					}
				})
				return verdict
			}
			w, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.FsyncRecord, Hook: hook})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			store := &sampleStore{}
			srv, err := New(Config{WAL: w, Addr: "127.0.0.1:0", Sink: store.add, Logf: func(string, ...any) {}})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Listen(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.Serve(ctx)
			}()
			defer func() {
				cancel()
				<-done
			}()
			defer close(ended)

			const dev = 12
			batch := mkBatch(dev, 1, 3)
			payload := proto.AppendBatch(nil, &batch)
			acks := make(chan *proto.BatchAck, 2)
			upload := func() {
				conn, pc := rawSession(t, srv.Addr().String(), dev)
				if err := pc.WriteFrame(proto.FrameBatch, payload); err != nil {
					t.Error(err)
				}
				go func() {
					defer conn.Close()
					ft, body, err := pc.ReadFrame()
					if err != nil || ft != proto.FrameBatchAck {
						acks <- nil
						return
					}
					var ack proto.BatchAck
					if err := proto.DecodeBatchAck(body, &ack); err != nil {
						t.Error(err)
					}
					acks <- &ack
				}()
			}
			upload()
			<-parked
			upload()
			select {
			case ack := <-acks:
				t.Fatalf("answered %+v while the original's round was parked", ack)
			case <-time.After(200 * time.Millisecond):
			}
			release <- tc.verdict
			var accepted []uint32
			for i := 0; i < 2; i++ {
				select {
				case ack := <-acks:
					if ack != nil {
						accepted = append(accepted, ack.Accepted)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("no answer after the round ended")
				}
			}
			if tc.verdict != nil {
				if len(accepted) != 0 {
					t.Fatalf("acked %v after the round that held the batch failed", accepted)
				}
				return
			}
			if len(accepted) != 2 || accepted[0]+accepted[1] != 3 || store.len() != 3 {
				t.Fatalf("acks accepted %v, sink holds %d: want the batch's 3 samples acked and sunk once", accepted, store.len())
			}
		})
	}
}
