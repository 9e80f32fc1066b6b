package agent

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"smartusage/internal/collector"
	"smartusage/internal/trace"
	"smartusage/internal/wal/waltest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty server accepted")
	}
	if _, err := New(Config{Servers: []string{"x:1"}, OS: 99}); err == nil {
		t.Fatal("bad OS accepted")
	}
}

func TestIOSVisibilityFilter(t *testing.T) {
	a, err := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.IOS, BatchSize: 1000,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, fmt.Errorf("no network in this test")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Sample{
		Device: 1, OS: trace.Android, WiFiState: trace.WiFiAssociated,
		Apps: []trace.AppTraffic{{Category: trace.CatVideo, Iface: trace.WiFi, RX: 10}},
		APs: []trace.APObs{
			{BSSID: 1, ESSID: "a", Associated: true},
			{BSSID: 2, ESSID: "b"},
		},
	}
	a.Record(&s)
	if a.Pending() != 1 {
		t.Fatalf("pending %d", a.Pending())
	}
	got := a.pending[0]
	if got.OS != trace.IOS {
		t.Fatal("OS not rewritten")
	}
	if len(got.Apps) != 0 {
		t.Fatal("iOS agent kept app records")
	}
	if len(got.APs) != 1 || !got.APs[0].Associated {
		t.Fatalf("iOS agent kept scan results: %+v", got.APs)
	}
}

func TestAndroidKeepsEverything(t *testing.T) {
	a, _ := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.Android, BatchSize: 1000,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, fmt.Errorf("no network")
		},
	})
	s := trace.Sample{
		Device: 1, OS: trace.Android,
		Apps: []trace.AppTraffic{{Category: trace.CatVideo, Iface: trace.WiFi, RX: 10}},
		APs:  []trace.APObs{{BSSID: 2, ESSID: "b"}},
	}
	a.Record(&s)
	got := a.pending[0]
	if len(got.Apps) != 1 || len(got.APs) != 1 {
		t.Fatal("android agent dropped data")
	}
}

func TestCacheOverflowDropsOldest(t *testing.T) {
	a, _ := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.Android,
		BatchSize: 1 << 30, MaxCache: 5,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, fmt.Errorf("offline")
		},
	})
	for i := 0; i < 8; i++ {
		s := trace.Sample{Device: 1, Time: int64(i)}
		a.Record(&s)
	}
	if a.Pending() != 5 {
		t.Fatalf("pending %d, want 5", a.Pending())
	}
	if a.pending[0].Time != 3 {
		t.Fatalf("oldest kept sample at time %d, want 3", a.pending[0].Time)
	}
	if a.Stats().Dropped != 3 {
		t.Fatalf("dropped %d", a.Stats().Dropped)
	}
}

func TestFlushErrorKeepsSamples(t *testing.T) {
	dials := 0
	a, _ := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.Android, BatchSize: 2,
		Dial: func(string, time.Duration) (net.Conn, error) {
			dials++
			return nil, fmt.Errorf("offline")
		},
	})
	for i := 0; i < 4; i++ {
		s := trace.Sample{Device: 1, Time: int64(i)}
		a.Record(&s) // Record never fails; flush errors are swallowed
	}
	if a.Pending() != 4 {
		t.Fatalf("pending %d", a.Pending())
	}
	if dials == 0 {
		t.Fatal("no flush attempted")
	}
	st := a.Stats()
	if st.FlushErrs == 0 || st.Uploaded != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	a, _ := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.Android,
		Dial: func(string, time.Duration) (net.Conn, error) {
			panic("must not dial with nothing pending")
		},
	})
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCopiesSample(t *testing.T) {
	a, _ := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.Android, BatchSize: 1000,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, fmt.Errorf("offline")
		},
	})
	s := trace.Sample{Device: 1, APs: []trace.APObs{{BSSID: 9, ESSID: "z"}}}
	a.Record(&s)
	s.APs[0].BSSID = 1 // mutate the caller's copy
	if a.pending[0].APs[0].BSSID != 9 {
		t.Fatal("agent aliases caller's slices")
	}
}

// liveCollector spins a real collector for agent happy-path tests.
func liveCollector(t *testing.T, token string) (addr string, count func() int, stop func()) {
	t.Helper()
	var mu sync.Mutex
	n := 0
	srv, err := collector.New(collector.Config{
		WAL:   waltest.Open(t),
		Addr:  "127.0.0.1:0",
		Token: token,
		Sink: func(*trace.Sample) error {
			mu.Lock()
			n++
			mu.Unlock()
			return nil
		},
		Logf: func(string, ...any) {},
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
	count = func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
	return srv.Addr().String(), count, func() {
		cancel()
		<-done
	}
}

func TestFlushDrainsMultipleBatches(t *testing.T) {
	addr, count, stop := liveCollector(t, "")
	defer stop()
	a, err := New(Config{Servers: []string{addr}, Device: 4, OS: trace.Android, BatchSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Force two frozen batches: fail the first flush after freezing.
	for i := 0; i < 5; i++ {
		s := trace.Sample{Device: 4, Time: int64(i)}
		a.Record(&s)
	}
	a.batchID++ // simulate an earlier consumed ID; harmless
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 9; i++ {
		s := trace.Sample{Device: 4, Time: int64(i)}
		a.Record(&s)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending %d", a.Pending())
	}
	if got := count(); got != 9 {
		t.Fatalf("collected %d, want 9", got)
	}
	st := a.Stats()
	if st.Uploaded != 9 || st.Redials != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseFlushesAndSendsBye(t *testing.T) {
	addr, count, stop := liveCollector(t, "tok")
	defer stop()
	a, err := New(Config{Servers: []string{addr}, Device: 5, OS: trace.IOS, Token: "tok", BatchSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Sample{Device: 5, Time: 1}
	a.Record(&s)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 1 {
		t.Fatalf("collected %d", got)
	}
	// Close again is harmless (nothing pending, no connection).
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerErrorSurfacesOnFlush(t *testing.T) {
	addr, _, stop := liveCollector(t, "right")
	defer stop()
	a, err := New(Config{Servers: []string{addr}, Device: 6, OS: trace.Android, Token: "wrong", BatchSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Sample{Device: 6, Time: 1}
	a.Record(&s)
	if err := a.Flush(); err == nil {
		t.Fatal("auth rejection not surfaced")
	}
	if a.Pending() != 1 {
		t.Fatal("rejected sample lost from cache")
	}
	a.resetConn()
}

func TestConnectionReuseAcrossFlushes(t *testing.T) {
	addr, _, stop := liveCollector(t, "")
	defer stop()
	a, err := New(Config{Servers: []string{addr}, Device: 7, OS: trace.Android, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s := trace.Sample{Device: 7, Time: int64(i)}
		a.Record(&s) // auto-flush every 2 samples
	}
	if got := a.Stats().Redials; got != 1 {
		t.Fatalf("redials %d, want 1 (connection reuse)", got)
	}
	a.Close()
}
