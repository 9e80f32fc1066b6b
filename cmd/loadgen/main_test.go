package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/sim"
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

// campaign returns the options of an in-process replay of the 2013 panel at
// scale 0.005: 8 simulated devices, one agent each.
func campaign() options {
	return options{
		campaign: 2013, scale: 0.005, seed: 1, batch: 24,
		timeout: time.Minute, readTimeout: 10 * time.Second,
	}
}

// simulatedSamples counts the samples sim.Run emits for loadgen's campaign
// options, and their devices.
func simulatedSamples(t *testing.T, o options) (samples int64, devices int) {
	t.Helper()
	cfg, err := config.ForYear(o.campaign, o.scale, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[trace.DeviceID]bool)
	if err := sm.Run(func(s *trace.Sample) error {
		samples++
		seen[s.Device] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return samples, len(seen)
}

// runManifest runs o in a temp TMPDIR and decodes its manifest.
func runManifest(t *testing.T, o options) (*manifest, error) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	err := run(o, &out)
	var doc map[string]*manifest
	if jerr := json.Unmarshal(out.Bytes(), &doc); jerr != nil && err == nil {
		t.Fatalf("manifest: %v", jerr)
	}
	return doc["loadgen"], err
}

// TestCampaignReplayReconciles replays a simulated panel through one agent
// per device into the in-process collector: every simulated sample must be
// recorded, uploaded, accepted and spooled, and the manifest must describe
// the replay.
func TestCampaignReplayReconciles(t *testing.T) {
	o := campaign()
	want, devices := simulatedSamples(t, o)
	man, err := runManifest(t, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"recorded", man.Client.Recorded},
		{"uploaded", man.Client.Uploaded},
		{"accepted", man.Server.Samples},
		{"spooled", man.Server.SinkSamples},
	} {
		if c.got != want {
			t.Errorf("%s %d samples, the campaign simulates %d", c.name, c.got, want)
		}
	}
	if man.Agents != devices || man.BatchesPerAgent != 0 || man.SamplesPerBatch != o.batch {
		t.Errorf("manifest describes %d agents x %d batches x %d samples, want %d devices x 0 x %d",
			man.Agents, man.BatchesPerAgent, man.SamplesPerBatch, devices, o.batch)
	}
	if man.Server.Frames == 0 || man.Server.Frames != man.Server.Accepted || man.WAL.Appends != man.Server.Accepted {
		t.Errorf("frames %d, accepted batches %d, WAL appends %d: want equal and non-zero without faults",
			man.Server.Frames, man.Server.Accepted, man.WAL.Appends)
	}
}

// TestCampaignReplayCatchesLoss replays the panel into a sink that
// acknowledges every fifth sample without keeping it: the ledger must fail.
func TestCampaignReplayCatchesLoss(t *testing.T) {
	var seen atomic.Int64
	o := campaign()
	o.wrapSink = func(next collector.Sink) collector.Sink {
		return func(s *trace.Sample) error {
			if seen.Add(1)%5 == 0 {
				return nil
			}
			return next(s)
		}
	}
	if _, err := runManifest(t, o); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("run returned %v, want a conservation failure", err)
	}
}

// TestCampaignReplayAbsorbsFaults replays the panel through refused dials
// and lost acks: failed flushes retry, duplicates are absorbed, and the
// ledger still holds.
func TestCampaignReplayAbsorbsFaults(t *testing.T) {
	o := campaign()
	o.faults = "dial=0.2,ackloss=0.1"
	want, _ := simulatedSamples(t, o)
	man, err := runManifest(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if man.Client.Faults == 0 || man.Client.Retries == 0 {
		t.Fatalf("%d faults injected, %d retries: the faults exercised nothing", man.Client.Faults, man.Client.Retries)
	}
	if man.Server.SinkSamples != want || man.Server.DupBatches == 0 {
		t.Fatalf("spooled %d of %d samples with %d duplicate batches: want all, and lost acks absorbed as duplicates",
			man.Server.SinkSamples, want, man.Server.DupBatches)
	}
}

// TestSyntheticManifestKeys checks that a synthetic run's manifest has
// exactly the keys of the committed ingest anchor, so the two compare.
func TestSyntheticManifestKeys(t *testing.T) {
	anchor, err := os.ReadFile("../../INGEST_7.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	o := options{agents: 4, batches: 2, batch: 6, aps: 1, essids: 8, seed: 1, timeout: time.Minute, readTimeout: 10 * time.Second}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := manifestKeys(t, out.Bytes()), manifestKeys(t, anchor); !reflect.DeepEqual(got, want) {
		t.Fatalf("synthetic manifest keys\n%v\nwant INGEST_7.json's\n%v", got, want)
	}
}

// manifestKeys lists the dotted paths of every key in a JSON document.
func manifestKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			return
		}
		for k, child := range m {
			keys = append(keys, prefix+k)
			walk(prefix+k+".", child)
		}
	}
	walk("", v)
	sort.Strings(keys)
	return keys
}
