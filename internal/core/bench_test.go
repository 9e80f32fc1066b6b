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

// BenchmarkAnalyzeCampaignSequential is the baseline: the one-worker
// streaming driver's two passes over the trace file, each decoding every
// sample while the worker analyzes the batch before.
func BenchmarkAnalyzeCampaignSequential(b *testing.B) {
	cfg, src, n := benchCampaign(b)
	if _, err := core.AnalyzeCampaign(cfg, nil, src, core.Options{}); err != nil { // warm analyzer pools
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
	if _, err := core.AnalyzeCampaign(cfg, nil, src, opts); err != nil { // warm analyzer pools
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

// BenchmarkAnalyzeCampaignParallel shards both passes across at least four
// workers (more when GOMAXPROCS exceeds that) and verifies the single-decode
// guarantee: exactly one decode per sample per run, against the streaming
// path's two. A warmup run primes the process-wide shard pools, so the
// committed one-iteration manifest records the steady state the pools are
// designed for rather than the first campaign's slab faults.
func BenchmarkAnalyzeCampaignParallel(b *testing.B) {
	cfg, src, n := benchCampaign(b)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	if _, err := core.AnalyzeCampaignParallel(cfg, nil, src, core.Options{AnalysisWorkers: workers}); err != nil { // warm pools
		b.Fatal(err)
	}
	b.ResetTimer()
	start := trace.DecodeCount()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeCampaignParallel(cfg, nil, src, core.Options{AnalysisWorkers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	decodes := trace.DecodeCount() - start
	if want := uint64(b.N) * uint64(n); decodes != want {
		b.Fatalf("decoded %d samples over %d runs, want %d (one decode per sample)", decodes, b.N, want)
	}
	b.ReportMetric(float64(decodes)/float64(b.N)/float64(n), "decodes/sample")
}
