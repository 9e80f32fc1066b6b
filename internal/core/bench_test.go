package core_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"smartusage/internal/analysis"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/trace"
)

// benchCampaign spools one small campaign trace to disk and returns its
// configuration, a restartable file source, and the sample count.
func benchCampaign(b testing.TB) (config.Campaign, analysis.Source, int) {
	b.Helper()
	dir := b.TempDir()
	cfg, err := config.ForYear(2013, 0.05, 9)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.RunWithConfig(cfg, core.Options{Scale: 0.05, Seed: 9, TraceDir: dir}); err != nil {
		b.Fatal(err)
	}
	src := analysis.FileSource(filepath.Join(dir, "campaign-2013.trace"))
	n := 0
	if err := src(func(*trace.Sample) error { n++; return nil }); err != nil {
		b.Fatal(err)
	}
	return cfg, src, n
}

// analyzeInShards reads src once into an n-way in-memory device partition,
// which holds it encoded, and analyzes the campaign there: each pass decodes
// every part on the goroutine that analyzes it, with memory that grows with
// the trace.
func analyzeInShards(cfg config.Campaign, src analysis.Source, n int, opts core.Options) (*core.CampaignRun, error) {
	sh := analysis.NewShards(n)
	if err := src(sh.Add); err != nil {
		sh.Release()
		return nil, err
	}
	return core.AnalyzeCampaignShards(cfg, nil, sh, opts)
}

// BenchmarkAnalyzeCampaignSequential is the baseline: the one-worker
// streaming driver's two passes over the trace file, each decoding every
// sample while the worker analyzes the batch before.
func BenchmarkAnalyzeCampaignSequential(b *testing.B) {
	cfg, src, n := benchCampaign(b)
	// An untimed first run takes the page faults.
	if _, err := core.AnalyzeCampaign(cfg, nil, src, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := trace.DecodeCount()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeCampaign(cfg, nil, src, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perRun := float64(trace.DecodeCount()-start) / float64(b.N) / float64(n)
	b.ReportMetric(perRun, "decodes/sample")
}

// BenchmarkAnalyzeCampaignSketch runs the same campaign through the
// bounded-memory sketch battery (Options.SketchMode), anchoring the cost of
// the streaming analyzers against the exact one-worker baseline above.
func BenchmarkAnalyzeCampaignSketch(b *testing.B) {
	cfg, src, n := benchCampaign(b)
	opts := core.Options{SketchMode: true}
	// An untimed first run takes the page faults.
	if _, err := core.AnalyzeCampaign(cfg, nil, src, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := trace.DecodeCount()
	for i := 0; i < b.N; i++ {
		run, err := core.AnalyzeCampaign(cfg, nil, src, opts)
		if err != nil {
			b.Fatal(err)
		}
		if run.Volumes.AllRX.Values() != nil || run.SketchCard == nil {
			b.Fatal("sketch mode produced no sketch results")
		}
	}
	b.StopTimer()
	perRun := float64(trace.DecodeCount()-start) / float64(b.N) / float64(n)
	b.ReportMetric(perRun, "decodes/sample")
}

// BenchmarkAnalyzeCampaignParallel reads the trace into at least four
// in-memory shards (more when GOMAXPROCS exceeds that), analyzes both passes
// there, and pins the decode count: exactly three decodes per sample per
// run, one reading the trace into the partition and one per pass, because
// the shards hold their samples encoded and each pass decodes them where it
// analyzes them.
func BenchmarkAnalyzeCampaignParallel(b *testing.B) {
	cfg, src, n := benchCampaign(b)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	// An untimed first run takes the page faults.
	if _, err := analyzeInShards(cfg, src, workers, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := trace.DecodeCount()
	for i := 0; i < b.N; i++ {
		if _, err := analyzeInShards(cfg, src, workers, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	decodes := trace.DecodeCount() - start
	if want := 3 * uint64(b.N) * uint64(n); decodes != want {
		b.Fatalf("decoded %d samples over %d runs, want %d (three decodes per sample)", decodes, b.N, want)
	}
	b.ReportMetric(float64(decodes)/float64(b.N)/float64(n), "decodes/sample")
}
