package agent

// Tests for the retry policy (backoff schedule, jitter bounds, permanent
// failures), cache-overflow accounting with a frozen in-flight batch, and
// the iOS visibility filter end to end through a live collector.

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

// timedCollector spins a collector that records the Time of every sinked
// sample in arrival order.
func timedCollector(t *testing.T) (addr string, times func() []int64, stop func()) {
	t.Helper()
	var mu sync.Mutex
	var got []int64
	srv, err := collector.New(collector.Config{
		WAL:         waltest.Open(t),
		Addr:        "127.0.0.1:0",
		ReadTimeout: time.Second,
		Sink: func(s *trace.Sample) error {
			mu.Lock()
			got = append(got, s.Time)
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
	times = func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]int64(nil), got...)
	}
	return srv.Addr().String(), times, func() {
		cancel()
		<-done
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	dials := 0
	var sleeps []time.Duration
	a, err := New(Config{
		Servers: []string{"127.0.0.1:1"}, Device: 1, OS: trace.Android,
		BatchSize: 1 << 30, MaxAttempts: 4,
		Backoff: 100 * time.Millisecond, MaxBackoff: 250 * time.Millisecond,
		Dial: func(string, time.Duration) (net.Conn, error) {
			dials++
			return nil, fmt.Errorf("offline")
		},
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Sample{Device: 1, Time: 1}
	a.Record(&s)
	if err := a.Flush(); err == nil {
		t.Fatal("flush succeeded with no network")
	}
	if dials != 4 {
		t.Fatalf("dialed %d times, want MaxAttempts=4", dials)
	}
	if len(sleeps) != 3 {
		t.Fatalf("slept %d times, want 3 (between attempts)", len(sleeps))
	}
	// Jittered exponential schedule: base 100ms, 200ms, then capped at
	// 250ms, each scaled into [0.5, 1.5).
	bounds := []struct{ lo, hi time.Duration }{
		{50 * time.Millisecond, 150 * time.Millisecond},
		{100 * time.Millisecond, 300 * time.Millisecond},
		{125 * time.Millisecond, 375 * time.Millisecond},
	}
	for i, d := range sleeps {
		if d < bounds[i].lo || d >= bounds[i].hi {
			t.Fatalf("sleep %d = %v, want in [%v, %v)", i, d, bounds[i].lo, bounds[i].hi)
		}
	}
	st := a.Stats()
	if st.Retries != 3 || st.FlushErrs != 1 || st.Uploaded != 0 {
		t.Fatalf("stats %+v", st)
	}
	if a.Pending() != 1 {
		t.Fatal("failed batch lost from cache")
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	addr, times, stop := timedCollector(t)
	defer stop()
	dials := 0
	a, err := New(Config{
		Servers: []string{addr}, Device: 2, OS: trace.Android,
		BatchSize: 1 << 30, MaxAttempts: 3,
		Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Dial: func(address string, timeout time.Duration) (net.Conn, error) {
			dials++
			if dials <= 2 {
				return nil, fmt.Errorf("transient failure %d", dials)
			}
			return net.DialTimeout("tcp", address, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s := trace.Sample{Device: 2, Time: int64(i)}
		a.Record(&s)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("flush did not recover: %v", err)
	}
	st := a.Stats()
	if st.Retries != 2 || st.Uploaded != 3 || st.FlushErrs != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := times(); len(got) != 3 {
		t.Fatalf("collected %d samples", len(got))
	}
	a.Close()
}

// Server rejections (wrong token, invalid samples) are permanent: the exact
// same bytes would be rejected again, so the retry loop must not burn
// attempts or sleep on them.
func TestPermanentErrorSkipsRetry(t *testing.T) {
	srv, err := collector.New(collector.Config{
		WAL:  waltest.Open(t),
		Addr: "127.0.0.1:0", Token: "right", ReadTimeout: time.Second,
		Sink: func(*trace.Sample) error { return nil },
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
	defer func() {
		cancel()
		<-done
	}()

	dials := 0
	a, err := New(Config{
		Servers: []string{srv.Addr().String()}, Device: 3, OS: trace.Android, Token: "wrong",
		BatchSize: 1 << 30, MaxAttempts: 5,
		Dial: func(address string, timeout time.Duration) (net.Conn, error) {
			dials++
			return net.DialTimeout("tcp", address, timeout)
		},
		Sleep: func(time.Duration) { t.Fatal("slept before a permanent failure") },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Sample{Device: 3, Time: 1}
	a.Record(&s)
	if err := a.Flush(); err == nil {
		t.Fatal("rejected upload reported success")
	}
	if dials != 1 {
		t.Fatalf("dialed %d times for a permanent rejection, want 1", dials)
	}
	if st := a.Stats(); st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// Cache overflow while a batch is frozen in flight: only queued samples may
// be evicted — the in-flight batch is immutable (its retry must resend
// identical bytes) — and Dropped must count exactly the evicted samples.
func TestCacheOverflowWithInflightBatch(t *testing.T) {
	addr, times, stop := timedCollector(t)
	defer stop()

	online := false
	a, err := New(Config{
		Servers: []string{addr}, Device: 4, OS: trace.Android,
		BatchSize: 4, MaxCache: 6, MaxAttempts: 1,
		Dial: func(address string, timeout time.Duration) (net.Conn, error) {
			if !online {
				return nil, fmt.Errorf("offline")
			}
			return net.DialTimeout("tcp", address, timeout)
		},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Samples 0-3 freeze into an in-flight batch when the auto-flush
	// fails; samples 4-8 then overflow the 6-slot cache one by one.
	for i := 0; i < 9; i++ {
		s := trace.Sample{Device: 4, Time: int64(i)}
		a.Record(&s)
	}
	st := a.Stats()
	if a.Pending() != 6 {
		t.Fatalf("pending %d, want MaxCache=6", a.Pending())
	}
	if st.Dropped != 3 {
		t.Fatalf("dropped %d, want exactly the 3 evicted samples", st.Dropped)
	}
	if st.Recorded != st.Dropped+a.Pending()+st.Uploaded {
		t.Fatalf("conservation broken: %+v with %d pending", st, a.Pending())
	}

	// Back online: the frozen batch must upload intact (times 0-3), then
	// the surviving queued samples (7, 8) — the evicted ones were 4-6.
	online = true
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	want := []int64{0, 1, 2, 3, 7, 8}
	got := times()
	if len(got) != len(want) {
		t.Fatalf("collected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collected %v, want %v", got, want)
		}
	}
	if st := a.Stats(); st.Uploaded != 6 || st.Dropped != 3 || st.Recorded != 9 {
		t.Fatalf("final stats %+v", st)
	}
}

// The iOS visibility filter end to end: the filtered sample must pass the
// collector's Validate (an iOS sample carrying app records is invalid) and
// arrive with apps stripped and non-associated scan results dropped.
func TestIOSFilterEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var got []trace.Sample
	srv, err := collector.New(collector.Config{
		WAL:         waltest.Open(t),
		Addr:        "127.0.0.1:0",
		ReadTimeout: time.Second,
		Sink: func(s *trace.Sample) error {
			mu.Lock()
			got = append(got, *s.Clone())
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
	defer func() {
		cancel()
		<-done
	}()

	a, err := New(Config{Servers: []string{srv.Addr().String()}, Device: 5, OS: trace.IOS, BatchSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Sample{
		Device: 5, OS: trace.Android, Time: 600,
		WiFiState: trace.WiFiAssociated, WiFiRX: 100, Battery: 70,
		Apps: []trace.AppTraffic{{Category: trace.CatVideo, Iface: trace.WiFi, RX: 10}},
		APs: []trace.APObs{
			{BSSID: 1, ESSID: "home", Associated: true},
			{BSSID: 2, ESSID: "neighbor"},
		},
	}
	a.Record(&s)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("collected %d samples", len(got))
	}
	up := got[0]
	if up.OS != trace.IOS || len(up.Apps) != 0 {
		t.Fatalf("iOS sample uploaded with apps: %+v", up)
	}
	if len(up.APs) != 1 || !up.APs[0].Associated || up.APs[0].ESSID != "home" {
		t.Fatalf("scan results survived the filter: %+v", up.APs)
	}
}
