package tiermerge_test

// Acceptance: analysis over a tiermerged campaign must be bit-identical to
// analysis over the single-collector campaign. A real (scaled-down) campaign
// trace is scattered across three replica spools — with deliberate
// cross-replica failover duplicates — and AnalyzeCampaign over the merged
// stream must DeepEqual AnalyzeCampaign over the original file, proving the
// tier is invisible to every analyzer downstream.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smartusage/internal/analysis"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/tiermerge"
	"smartusage/internal/trace"
)

func TestAnalysisBitIdenticalToSingleCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign trace")
	}
	dir := t.TempDir()
	cfg, err := config.ForYear(2013, 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunWithConfig(cfg, core.Options{Scale: 0.02, Seed: 9, TraceDir: dir}); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "campaign-2013.trace")

	// Scatter the campaign across three replica spools round-robin, sending
	// every seventh sample to a second replica too — the byte-identical
	// duplicate an agent failover leaves behind.
	const replicas = 3
	dirs := make([]string, replicas)
	writers := make([]*trace.Writer, replicas)
	files := make([]*os.File, replicas)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, "replica", string(rune('a'+i)))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dirs[i], "spool-000000.trace"))
		if err != nil {
			t.Fatal(err)
		}
		files[i], writers[i] = f, trace.NewWriter(f)
	}
	n, dups := 0, 0
	if err := analysis.FileSource(tracePath)(func(s *trace.Sample) error {
		if err := writers[n%replicas].Write(s); err != nil {
			return err
		}
		if n%7 == 0 {
			dups++
			if err := writers[(n+1)%replicas].Write(s); err != nil {
				return err
			}
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range writers {
		if err := writers[i].Flush(); err != nil {
			t.Fatal(err)
		}
		if err := files[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 {
		t.Fatal("campaign trace is empty")
	}

	m, err := tiermerge.Open(dirs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	merged, err := core.AnalyzeCampaign(cfg, nil, m.Source(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.AnalyzeCampaign(cfg, nil, analysis.FileSource(tracePath), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatal("analysis over the tiermerged campaign differs from the single-collector campaign")
	}

	st, err := tiermerge.MergeDirs(dirs, func(*trace.Sample) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique != n || st.FailoverDups != dups {
		t.Fatalf("merge stats %+v, want %d unique and %d failover dups", st, n, dups)
	}
}
