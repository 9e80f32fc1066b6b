// Benchmarks: one per table and figure of the paper (the harness that
// regenerates each artifact), plus the substrate hot paths (simulation,
// codecs, wire protocol, collection).
//
// The per-experiment benchmarks measure the cost of computing that
// experiment's result from an already-simulated campaign: prepass-derived
// experiments (Tables 1/3/4, Figs. 3-5/10/14-16/19...) re-run their
// derivation; streaming experiments (Figs. 2/6-9/11-13/17/18, Tables 5-7)
// re-run their analyzer over the campaign held as one in-memory shard
// (RunShards), so they time the analyzer rather than a decode or batch copy.
package smartusage_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"sync"
	"testing"

	"smartusage/internal/agent"
	"smartusage/internal/analysis"
	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/macro"
	"smartusage/internal/proto"
	"smartusage/internal/sim"
	"smartusage/internal/survey"
	"smartusage/internal/trace"
)

// The fixture simulation is deterministic, so analyzer benchmarks are
// stable across runs.

// fixture holds one simulated 2015 campaign shared by all benchmarks.
type fixture struct {
	cfg     config.Campaign
	sim     *sim.Simulator
	samples []trace.Sample
	src     analysis.Source
	sh      *analysis.Shards // the campaign as one shard, never released
	prep    *analysis.Prep
	meta    analysis.Meta
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		cfg, err := config.ForYear(2015, 0.06, 7)
		if err != nil {
			panic(err)
		}
		sm, err := sim.New(cfg)
		if err != nil {
			panic(err)
		}
		f := &fixture{cfg: cfg, sim: sm, meta: analysis.MetaFor(cfg)}
		if err := sm.Run(func(s *trace.Sample) error {
			f.samples = append(f.samples, *s.Clone())
			return nil
		}); err != nil {
			panic(err)
		}
		f.src = analysis.SliceSource(f.samples)
		if f.sh, err = analysis.ShardSamples(f.src, 1); err != nil {
			panic(err)
		}
		release := cfg.Update.Release
		if f.prep, err = analysis.BuildPrepShards(f.meta, f.sh, &release); err != nil {
			panic(err)
		}
		fix = f
	})
	return fix
}

// --- substrate benchmarks ----------------------------------------------------

func BenchmarkSimulate(b *testing.B) {
	cfg, err := config.ForYear(2014, 0.02, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Days = 5
	cfg.Update = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := sm.Run(func(*trace.Sample) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "samples/op")
	}
}

func BenchmarkTraceEncode(b *testing.B) {
	f := getFixture(b)
	var buf []byte
	var bytesOut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &f.samples[i%len(f.samples)]
		buf = trace.AppendSample(buf[:0], s)
		bytesOut += int64(len(buf))
	}
	b.SetBytes(bytesOut / int64(b.N))
}

func BenchmarkTraceDecode(b *testing.B) {
	f := getFixture(b)
	encoded := make([][]byte, 1024)
	for i := range encoded {
		encoded[i] = trace.AppendSample(nil, &f.samples[i%len(f.samples)])
	}
	var s trace.Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeSample(encoded[i%len(encoded)], &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtoBatchRoundTrip(b *testing.B) {
	f := getFixture(b)
	batch := proto.Batch{BatchID: 1, Samples: f.samples[:64]}
	var out proto.Batch
	var payload []byte
	// One warm round trip primes the scratch pool, the decode target's
	// slices, and the ESSID interner, so the one-iteration manifest records
	// the steady state.
	payload = proto.AppendBatch(payload[:0], &batch)
	if err := proto.DecodeBatch(payload, &out); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload = proto.AppendBatch(payload[:0], &batch)
		if err := proto.DecodeBatch(payload, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepass(b *testing.B) {
	f := getFixture(b)
	release := f.cfg.Update.Release
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.BuildPrepShards(f.meta, f.sh, &release); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentCollector measures end-to-end upload throughput over
// loopback TCP.
func BenchmarkAgentCollector(b *testing.B) {
	f := getFixture(b)
	n := 0
	srv, err := collector.New(collector.Config{
		Addr: "127.0.0.1:0",
		Sink: func(*trace.Sample) error { n++; return nil },
		Logf: func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		b.Fatal(err)
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

	dev := f.samples[0].Device
	a, err := agent.New(agent.Config{
		Server: srv.Addr().String(), Device: dev, OS: trace.Android,
		BatchSize: 1 << 30, // flush manually
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.samples[i%4096]
		s.Device = dev
		a.Record(&s)
		if a.Pending() >= 256 {
			if err := a.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := a.Close(); err != nil {
		b.Fatal(err)
	}
}

// --- one benchmark per paper artifact ---------------------------------------

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := macro.CellShareOfRBB(2014); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.Overview()
	}
}

func BenchmarkTable2(b *testing.B) {
	f := getFixture(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := survey.Conduct(2015, f.sim.Panel, f.prep, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// runAnalyzer replays the fixture's one shard through one analyzer with the
// paper's cleaning rules applied.
func runAnalyzer(b *testing.B, f *fixture, a analysis.Analyzer) {
	b.Helper()
	if err := analysis.RunShards(f.sh, f.prep, []analysis.Analyzer{a}, nil); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig2(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := analysis.NewAggregate(f.meta)
		runAnalyzer(b, f, agg)
		_ = agg.Result()
	}
}

func BenchmarkFig3(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = f.prep.Volumes(false)
	}
}

func BenchmarkFig4(b *testing.B) { BenchmarkFig3(b) }

func BenchmarkFig5(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.UserTypes()
	}
}

func BenchmarkTable3(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, v := f.prep.Volumes(false)
		if _, err := analysis.Growth([]analysis.VolumeStats{v, v, v}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.NewWiFiRatios(f.meta, f.prep)
		runAnalyzer(b, f, r)
		_ = r.Result()
	}
}

func BenchmarkFig7(b *testing.B) { BenchmarkFig6(b) }
func BenchmarkFig8(b *testing.B) { BenchmarkFig6(b) }

func BenchmarkFig9(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		is := analysis.NewInterfaceState(f.meta)
		runAnalyzer(b, f, is)
		_ = is.Result()
	}
}

func BenchmarkTable4(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.APCensus()
	}
}

func BenchmarkFig10(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.APDensity()
	}
}

func BenchmarkFig11(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt := analysis.NewLocationTraffic(f.meta, f.prep)
		runAnalyzer(b, f, lt)
		_ = lt.Result()
	}
}

func BenchmarkFig12(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apd := analysis.NewAPsPerDay(f.meta, f.prep)
		runAnalyzer(b, f, apd)
		_ = apd.Result()
	}
}

func BenchmarkTable5(b *testing.B) { BenchmarkFig12(b) }

func BenchmarkFig13(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := analysis.NewAssocDuration(f.meta, f.prep, false)
		runAnalyzer(b, f, ad)
		_ = ad.Result()
	}
}

func BenchmarkFig14(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.BandShare()
	}
}

func BenchmarkFig15(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.RSSI()
	}
}

func BenchmarkFig16(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.Channels()
	}
}

func BenchmarkFig17(b *testing.B) {
	f := getFixture(b)
	// Warm the interval-slice pool; the timed loop then measures the pooled
	// steady state (each iteration releases its slabs for the next).
	{
		pa := analysis.NewPublicAvailability(f.prep)
		runAnalyzer(b, f, pa)
		_ = pa.Result()
		pa.Release()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := analysis.NewPublicAvailability(f.prep)
		runAnalyzer(b, f, pa)
		_ = pa.Result()
		pa.Release()
	}
}

func BenchmarkTable6(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab := analysis.NewAppBreakdown(f.meta, f.prep)
		runAnalyzer(b, f, ab)
		_ = ab.Result()
	}
}

func BenchmarkTable7(b *testing.B) { BenchmarkTable6(b) }

func BenchmarkFig18(b *testing.B) {
	f := getFixture(b)
	release := f.cfg.Update.Release
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ut := analysis.NewUpdateTiming(f.meta, f.prep, release)
		if err := analysis.RunShards(f.sh, f.prep, nil, []analysis.Analyzer{ut}); err != nil {
			b.Fatal(err)
		}
		_ = ut.Result()
	}
}

func BenchmarkFig19(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.CapEffect()
	}
}

func BenchmarkTable8(b *testing.B) { BenchmarkTable2(b) }
func BenchmarkTable9(b *testing.B) { BenchmarkTable2(b) }

func BenchmarkImplications(b *testing.B) {
	f := getFixture(b)
	_, v := f.prep.Volumes(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := macro.ComputeImplications(2015, v.MedianCell, v.MedianWiFi, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullCampaign measures the complete simulate-and-analyze path at
// a small scale — the end-to-end cost of regenerating one campaign's
// worth of results.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunCampaign(2013, core.Options{Scale: 0.02, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceFileRoundTrip measures trace spooling throughput: encode a
// block of samples and stream them back.
func BenchmarkTraceFileRoundTrip(b *testing.B) {
	f := getFixture(b)
	block := f.samples
	if len(block) > 50_000 {
		block = block[:50_000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for j := range block {
			if err := w.Write(&block[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := trace.NewReader(&buf).ReadAll(func(*trace.Sample) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != len(block) {
			b.Fatalf("round trip lost samples: %d of %d", n, len(block))
		}
		b.SetBytes(int64(buf.Cap()))
	}
}

// --- extension benchmarks ----------------------------------------------------

func BenchmarkInterference(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.prep.Interference()
	}
}

func BenchmarkBattery(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba := analysis.NewBattery(f.meta)
		runAnalyzer(b, f, ba)
		_ = ba.Result()
	}
}

func BenchmarkCarrierRatios(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr := analysis.NewCarrierRatios()
		runAnalyzer(b, f, cr)
		_ = cr.Result()
	}
}

// --- design-choice ablations --------------------------------------------------

// Sequential vs concurrent simulation: the cost of the re-sequencing
// machinery and the win from parallelism.
func BenchmarkSimulateConcurrent(b *testing.B) {
	cfg, err := config.ForYear(2014, 0.02, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Days = 5
	cfg.Update = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sm.RunConcurrent(-1, func(*trace.Sample) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// Binary vs JSONL codec: the cost of the human-readable format.
func BenchmarkJSONLEncode(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.MarshalJSONSample(&f.samples[i%len(f.samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONLDecode(b *testing.B) {
	f := getFixture(b)
	lines := make([][]byte, 512)
	for i := range lines {
		line, err := trace.MarshalJSONSample(&f.samples[i%len(f.samples)])
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = line
	}
	var s trace.Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.UnmarshalJSONSample(lines[i%len(lines)], &s); err != nil {
			b.Fatal(err)
		}
	}
}

// In-memory vs on-disk analysis source: the cost of spooling through a
// trace file instead of RAM.
func BenchmarkPrepassFromFile(b *testing.B) {
	f := getFixture(b)
	dir := b.TempDir()
	path := dir + "/bench.trace"
	out, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := trace.NewWriter(out)
	for i := range f.samples {
		if err := w.Write(&f.samples[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	out.Close()
	release := f.cfg.Update.Release
	src := analysis.FileSource(path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.BuildPrep(f.meta, src, &release, 1); err != nil {
			b.Fatal(err)
		}
	}
}
