package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/collector"
	"smartusage/internal/trace"
)

// TestScratchRemovedAfterConservationFailure runs the in-process collector
// with a sink that acknowledges every fifth sample without keeping it. The
// run must fail conservation and still remove its temp scratch directory,
// which held the WAL, the collector spool and the agent spools.
func TestScratchRemovedAfterConservationFailure(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	scratchGlob := filepath.Join(tmp, "loadgen-*")
	var seen atomic.Int64
	var during atomic.Int64 // scratch dirs present while the sink ran
	o := options{
		agents: 4, batches: 2, batch: 6, aps: 1, essids: 8, spool: true,
		timeout: time.Minute, readTimeout: 10 * time.Second,
		wrapSink: func(next collector.Sink) collector.Sink {
			return func(s *trace.Sample) error {
				if seen.Add(1) == 1 {
					m, _ := filepath.Glob(scratchGlob)
					during.Store(int64(len(m)))
				}
				if seen.Load()%5 == 0 {
					return nil
				}
				return next(s)
			}
		},
	}
	err := run(o, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("run returned %v, want a conservation failure", err)
	}
	if during.Load() != 1 {
		t.Fatalf("%d scratch directories while the run was live, want 1", during.Load())
	}
	if m, _ := filepath.Glob(scratchGlob); len(m) != 0 {
		t.Fatalf("scratch left behind after a failed run: %v", m)
	}
}

// TestTimeoutReturnsWithLiveConnections stalls the in-process collector's
// sink, so the agents hold their connections waiting for acks. The run must
// still fail on -timeout promptly: its drain does not wait on them.
func TestTimeoutReturnsWithLiveConnections(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	release := make(chan struct{})
	defer close(release)
	o := options{
		agents: 2, batches: 1, batch: 4, aps: 1, essids: 8,
		timeout: 200 * time.Millisecond, readTimeout: time.Minute,
		wrapSink: func(next collector.Sink) collector.Sink {
			return func(s *trace.Sample) error {
				<-release
				return next(s)
			}
		},
	}
	done := make(chan error, 1)
	go func() { done <- run(o, io.Discard) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "-timeout") {
			t.Fatalf("run returned %v, want a -timeout failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run waited on the stalled connections past its -timeout")
	}
}

// TestScrapeTimesOut checks that a metrics endpoint that never answers fails
// the scrape instead of hanging it.
func TestScrapeTimesOut(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	prev := scrapeClient.Timeout
	scrapeClient.Timeout = 50 * time.Millisecond
	defer func() { scrapeClient.Timeout = prev }()

	done := make(chan error, 1)
	go func() {
		_, err := scrape(srv.URL)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("scrape of a stalled endpoint succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scrape of a stalled endpoint hung")
	}
}
