package collector

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal/waltest"
)

// startServer spins a collector on a random port, returning it, its
// address, the collected-sample store, and a shutdown func.
func startServer(t *testing.T, token string) (*Server, string, *sampleStore, func()) {
	t.Helper()
	store := &sampleStore{}
	srv, err := New(Config{
		WAL:         waltest.Open(t),
		Addr:        "127.0.0.1:0",
		Token:       token,
		Sink:        store.add,
		ReadTimeout: 2 * time.Second,
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
	stop := func() {
		cancel()
		<-done
	}
	return srv, srv.Addr().String(), store, stop
}

type sampleStore struct {
	mu      sync.Mutex
	samples []trace.Sample
}

func (s *sampleStore) add(sm *trace.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, *sm.Clone())
	return nil
}

func (s *sampleStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

func mkSample(dev trace.DeviceID, i int) trace.Sample {
	return trace.Sample{
		Device:  dev,
		OS:      trace.Android,
		Time:    int64(1_000_000 + i*600),
		CellRX:  uint64(i) * 1000,
		Battery: 80,
	}
}

func TestAgentUploadsSamples(t *testing.T) {
	_, addr, store, stop := startServer(t, "tok")
	defer stop()

	a, err := agent.New(agent.Config{
		Servers: []string{addr}, Device: 42, OS: trace.Android, Token: "tok", BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s := mkSample(42, i)
		a.Record(&s)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.len(); got != 10 {
		t.Fatalf("collected %d samples, want 10", got)
	}
	st := a.Stats()
	if st.Uploaded != 10 || st.Recorded != 10 || st.Dropped != 0 {
		t.Fatalf("agent stats %+v", st)
	}
}

func TestAuthRejected(t *testing.T) {
	srv, addr, store, stop := startServer(t, "right")
	defer stop()

	a, err := agent.New(agent.Config{
		Servers: []string{addr}, Device: 7, OS: trace.IOS, Token: "wrong",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mkSample(7, 0)
	a.Record(&s)
	if err := a.Close(); err == nil {
		t.Fatal("upload with wrong token succeeded")
	}
	if store.len() != 0 {
		t.Fatal("samples accepted despite auth failure")
	}
	if srv.Stats().AuthFails.Load() == 0 {
		t.Fatal("auth failure not counted")
	}
}

func TestNoAuthWhenTokenEmpty(t *testing.T) {
	_, addr, store, stop := startServer(t, "")
	defer stop()
	a, _ := agent.New(agent.Config{Servers: []string{addr}, Device: 9, OS: trace.Android, Token: "anything"})
	s := mkSample(9, 0)
	a.Record(&s)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if store.len() != 1 {
		t.Fatal("sample not accepted")
	}
}

// flakyConn dies after a budgeted number of I/O operations, simulating a
// handset losing connectivity mid-upload. Failing after the write but
// before the ack read forces the client to resend a batch the server
// already processed — the dedup path.
type flakyConn struct {
	net.Conn
	ops int
}

func (c *flakyConn) step() error {
	c.ops--
	if c.ops <= 0 {
		c.Conn.Close()
		return fmt.Errorf("injected connection death")
	}
	return nil
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if err := c.step(); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

func (c *flakyConn) Read(b []byte) (int, error) {
	if err := c.step(); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

// The agent's cache-and-retry path: dial failures and mid-stream
// connection deaths must not lose samples, and batch dedup must keep
// retried uploads exactly-once.
func TestFlakyNetworkExactlyOnce(t *testing.T) {
	srv, addr, store, stop := startServer(t, "")
	defer stop()

	rng := rand.New(rand.NewSource(5))
	a, err := agent.New(agent.Config{
		Servers: []string{addr}, Device: 77, OS: trace.Android, BatchSize: 3,
		Dial: func(address string, timeout time.Duration) (net.Conn, error) {
			if rng.Float64() < 0.3 {
				return nil, fmt.Errorf("injected dial failure")
			}
			conn, err := net.DialTimeout("tcp", address, timeout)
			if err != nil {
				return nil, err
			}
			return &flakyConn{Conn: conn, ops: 1 + rng.Intn(8)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		s := mkSample(77, i)
		a.Record(&s)
	}
	// Drain the cache with retries.
	for try := 0; try < 100 && a.Pending() > 0; try++ {
		a.Flush()
	}
	if a.Pending() != 0 {
		t.Fatalf("%d samples still pending after retries", a.Pending())
	}
	a.Close()
	if got := store.len(); got != n {
		t.Fatalf("collected %d, want exactly %d", got, n)
	}
	if a.Stats().FlushErrs == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
	_ = srv
}

// A batch resent after a lost ack must be deduplicated server-side.
func TestBatchDedup(t *testing.T) {
	srv, addr, store, stop := startServer(t, "")
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	hello := proto.Hello{Version: proto.Version, Device: 5, OS: trace.Android}
	if err := pc.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &hello)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := pc.ReadFrame(); err != nil || ft != proto.FrameHelloAck {
		t.Fatalf("hello ack: %v %v", ft, err)
	}
	s := mkSample(5, 1)
	batch := proto.Batch{BatchID: 1, Samples: []trace.Sample{s}}
	payload := proto.AppendBatch(nil, &batch)
	for i := 0; i < 3; i++ { // send the same batch three times
		if err := pc.WriteFrame(proto.FrameBatch, payload); err != nil {
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
		wantAccepted := uint32(0)
		if i == 0 {
			wantAccepted = 1
		}
		if ack.Accepted != wantAccepted {
			t.Fatalf("resend %d accepted %d", i, ack.Accepted)
		}
	}
	if store.len() != 1 {
		t.Fatalf("stored %d copies", store.len())
	}
	if srv.Stats().DupBatches.Load() != 2 {
		t.Fatalf("dup count %d", srv.Stats().DupBatches.Load())
	}
}

func TestServerRejectsForeignDeviceSamples(t *testing.T) {
	_, addr, store, stop := startServer(t, "")
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := proto.NewConn(conn)
	hello := proto.Hello{Version: proto.Version, Device: 5, OS: trace.Android}
	pc.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &hello))
	pc.ReadFrame()

	s := mkSample(6, 1) // wrong device
	batch := proto.Batch{BatchID: 1, Samples: []trace.Sample{s}}
	pc.WriteFrame(proto.FrameBatch, proto.AppendBatch(nil, &batch))
	// Server closes the connection with an error; either an error frame or
	// EOF is acceptable, but nothing may be stored.
	pc.ReadFrame()
	time.Sleep(50 * time.Millisecond)
	if store.len() != 0 {
		t.Fatal("foreign-device sample stored")
	}
}

func TestServerRejectsBadFirstFrame(t *testing.T) {
	srv, addr, _, stop := startServer(t, "")
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pc := proto.NewConn(conn)
	pc.WriteFrame(proto.FrameBatch, []byte{1})
	ft, _, err := pc.ReadFrame()
	if err != nil && ft != proto.FrameError {
		// Either an explicit error frame or connection teardown.
		_ = ft
	}
	conn.Close()
	deadline := time.Now().Add(time.Second)
	for srv.Stats().Errors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Stats().Errors.Load() == 0 {
		t.Fatal("protocol violation not counted")
	}
}

func TestManyConcurrentAgents(t *testing.T) {
	_, addr, store, stop := startServer(t, "")
	defer stop()

	const agents = 20
	const perAgent = 30
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for d := 0; d < agents; d++ {
		wg.Add(1)
		go func(dev trace.DeviceID) {
			defer wg.Done()
			a, err := agent.New(agent.Config{Servers: []string{addr}, Device: dev, OS: trace.Android, BatchSize: 7})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perAgent; i++ {
				s := mkSample(dev, i)
				a.Record(&s)
			}
			errs <- a.Close()
		}(trace.DeviceID(d + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := store.len(); got != agents*perAgent {
		t.Fatalf("collected %d, want %d", got, agents*perAgent)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{WAL: waltest.Open(t)}); err == nil {
		t.Fatal("nil sink accepted")
	}
	if _, err := New(Config{Sink: func(*trace.Sample) error { return nil }}); err == nil {
		t.Fatal("nil WAL accepted")
	}
}

func TestGracefulShutdownFlushesConnections(t *testing.T) {
	_, addr, store, stop := startServer(t, "")
	a, _ := agent.New(agent.Config{Servers: []string{addr}, Device: 3, OS: trace.Android})
	s := mkSample(3, 0)
	a.Record(&s)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	stop() // must not hang
	if store.len() != 1 {
		t.Fatal("sample lost across shutdown")
	}
}

func TestRotatingSpool(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewRotatingSpool(dir, 2000) // tiny budget to force rotation
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		s := mkSample(9, i)
		if err := sp.Sink()(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if sp.Samples() != n {
		t.Fatalf("spooled %d", sp.Samples())
	}
	segs, err := sp.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	// Every segment is an independently readable trace; together they hold
	// all samples in order.
	var got []trace.Sample
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		err = trace.NewReader(f).ReadAll(func(s *trace.Sample) error {
			got = append(got, *s.Clone())
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != n {
		t.Fatalf("read back %d of %d", len(got), n)
	}
	for i := range got {
		if got[i].Time != int64(1_000_000+i*600) {
			t.Fatalf("sample %d out of order", i)
		}
	}
	// Writes after Close must fail.
	s := mkSample(9, 0)
	if err := sp.Sink()(&s); err == nil {
		t.Fatal("write after close accepted")
	}
}

// With MaxConns=1, a second concurrent agent must queue behind the first
// rather than fail; all samples still arrive.
func TestMaxConnsQueues(t *testing.T) {
	store := &sampleStore{}
	srv, err := New(Config{
		WAL:      waltest.Open(t),
		Addr:     "127.0.0.1:0",
		Sink:     store.add,
		MaxConns: 1,
		Logf:     func(string, ...any) {},
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

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for d := 1; d <= 4; d++ {
		wg.Add(1)
		go func(dev trace.DeviceID) {
			defer wg.Done()
			a, err := agent.New(agent.Config{Servers: []string{srv.Addr().String()}, Device: dev, OS: trace.Android, BatchSize: 3})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 9; i++ {
				s := mkSample(dev, i)
				a.Record(&s)
			}
			errs <- a.Close()
		}(trace.DeviceID(d))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := store.len(); got != 36 {
		t.Fatalf("collected %d, want 36", got)
	}
	// The server handles Bye asynchronously; wait for the counter to drain.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().ActiveConns.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Stats().ActiveConns.Load() != 0 {
		t.Fatal("active connections not drained")
	}
}
