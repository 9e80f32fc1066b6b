// Benchmarks: one per computation behind the paper's tables and figures (the
// harness that regenerates each artifact), plus the substrate hot paths
// (simulation, codecs, wire protocol, collection). Artifacts computed by the
// same code share its benchmark — Fig. 4 is Fig. 3's, Figs. 7-8 are Fig. 6's,
// Table 5 is Fig. 12's, Table 7 is Table 6's, Tables 8-9 are Table 2's;
// DESIGN.md's per-experiment index names each artifact's benchmark.
//
// The per-experiment benchmarks measure the cost of computing that
// experiment's result from an already-simulated campaign: prepass-derived
// experiments (Tables 1/3/4, Figs. 3/5/10/14-16/19...) re-run their
// derivation; streaming experiments (Figs. 2/6/9/11-13/17/18, Table 6)
// feed their analyzer's Add, on the calling goroutine, the samples the
// paper's cleaning rules keep (every sample for Fig. 18's raw analyzer),
// which the fixture holds decoded, so they time the analyzer alone: no
// decode, batch copy or goroutine hand-off.
package smartusage_test

import (
	"bytes"
	"context"
	"io"
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
	cleaned []trace.Sample // the samples the cleaning rules keep, in stream order
	src     analysis.Source
	in      analysis.Input // src streamed on one worker
	prep    *analysis.Prep
	meta    analysis.Meta
}

// keeper is an Analyzer that keeps a deep copy of every sample it is given:
// as a pass's one cleaned analyzer it records the samples that survive the
// cleaning rules.
type keeper struct{ samples []trace.Sample }

func (k *keeper) Add(s *trace.Sample)         { k.samples = append(k.samples, *s.Clone()) }
func (k *keeper) NewShard() analysis.Analyzer { return &keeper{} }
func (k *keeper) Merge(shard analysis.Analyzer) {
	k.samples = append(k.samples, shard.(*keeper).samples...)
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
		f.in = analysis.Stream(f.src, 1)
		release := cfg.Update.Release
		if f.prep, err = analysis.BuildPrep(f.meta, f.in, &release); err != nil {
			panic(err)
		}
		var keep keeper
		if err := analysis.Run(f.in, f.prep, []analysis.Analyzer{&keep}, nil); err != nil {
			panic(err)
		}
		f.cleaned = keep.samples
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

// BenchmarkTraceRead times the decode path both analysis passes use: a
// Reader (in-place record decode, interned ESSIDs) draining the whole
// fixture campaign encoded in memory. It reports ns/sample.
func BenchmarkTraceRead(b *testing.B) {
	f := getFixture(b)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := range f.samples {
		if err := w.Write(&f.samples[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.SetBytes(int64(len(encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := trace.NewReader(bytes.NewReader(encoded)).ReadAll(func(*trace.Sample) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != len(f.samples) {
			b.Fatalf("read %d of %d samples", n, len(f.samples))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(f.samples)), "ns/sample")
}

// BenchmarkTraceWrite times the spool path simulator output takes: the
// whole fixture campaign through a trace.Writer to io.Discard. It reports
// ns/sample.
func BenchmarkTraceWrite(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := trace.NewWriter(io.Discard)
		for j := range f.samples {
			if err := w.Write(&f.samples[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(f.samples)), "ns/sample")
}

func BenchmarkProtoBatchRoundTrip(b *testing.B) {
	f := getFixture(b)
	batch := proto.Batch{BatchID: 1, Samples: f.samples[:64]}
	var out proto.Batch
	var payload []byte
	// One warm round trip sizes the payload and the decode target's slices,
	// so the one-iteration manifest records the steady state.
	payload = proto.AppendBatch(payload[:0], &batch)
	if err := proto.DecodeBatchAlias(payload, &out); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload = proto.AppendBatch(payload[:0], &batch)
		if err := proto.DecodeBatchAlias(payload, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepass(b *testing.B) {
	f := getFixture(b)
	release := f.cfg.Update.Release
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.BuildPrep(f.meta, f.in, &release); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentCollector measures upload throughput over loopback TCP. One
// op records a batch of agentBatch samples and flushes it. Flush returns only
// once the collector has sinked and acked the batch, so all of the server's
// work for an op lands inside the timed region. One untimed batch first opens
// the session, and the timer stops before Close, so at one iteration the
// connection set-up and teardown stay outside the measurement.
func BenchmarkAgentCollector(b *testing.B) {
	const agentBatch = 256
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
		Servers: []string{srv.Addr().String()}, Device: dev, OS: trace.Android,
		BatchSize: 1 << 30, // flush manually
	})
	if err != nil {
		b.Fatal(err)
	}
	upload := func(op int) {
		for j := 0; j < agentBatch; j++ {
			s := f.samples[(op*agentBatch+j)%4096]
			s.Device = dev
			a.Record(&s)
		}
		if err := a.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	upload(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upload(i + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*agentBatch), "ns/sample")
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

// runAnalyzer feeds one analyzer the fixture's cleaned samples on the
// calling goroutine.
func runAnalyzer(f *fixture, a analysis.Analyzer) {
	for i := range f.cleaned {
		a.Add(&f.cleaned[i])
	}
}

func BenchmarkFig2(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := analysis.NewAggregate(f.meta)
		runAnalyzer(f, agg)
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
		runAnalyzer(f, r)
		_ = r.Result()
	}
}

func BenchmarkFig9(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		is := analysis.NewInterfaceState(f.meta)
		runAnalyzer(f, is)
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
		runAnalyzer(f, lt)
		_ = lt.Result()
	}
}

func BenchmarkFig12(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apd := analysis.NewAPsPerDay(f.meta, f.prep)
		runAnalyzer(f, apd)
		_ = apd.Result()
	}
}

func BenchmarkFig13(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := analysis.NewAssocDuration(f.meta, f.prep, false)
		runAnalyzer(f, ad)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := analysis.NewPublicAvailability(f.prep)
		runAnalyzer(f, pa)
		_ = pa.Result()
	}
}

func BenchmarkTable6(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab := analysis.NewAppBreakdown(f.meta, f.prep)
		runAnalyzer(f, ab)
		_ = ab.Result()
	}
}

func BenchmarkFig18(b *testing.B) {
	f := getFixture(b)
	release := f.cfg.Update.Release
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ut := analysis.NewUpdateTiming(f.meta, f.prep, release)
		for j := range f.samples {
			ut.Add(&f.samples[j])
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
	campaign := func(seed int64) {
		if _, err := core.RunCampaign(2013, core.Options{Scale: 0.02, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	campaign(1) // an untimed first campaign takes the page faults
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign(int64(i + 1))
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
		runAnalyzer(f, ba)
		_ = ba.Result()
	}
}

func BenchmarkCarrierRatios(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr := analysis.NewCarrierRatios()
		runAnalyzer(f, cr)
		_ = cr.Result()
	}
}

// --- design-choice ablations --------------------------------------------------

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
		if _, err := analysis.BuildPrep(f.meta, analysis.Stream(src, 1), &release); err != nil {
			b.Fatal(err)
		}
	}
}
