package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"smartusage/internal/analysis"
	"smartusage/internal/core"
)

// TestMultiCoreSpeedup times the sharded analysis — BuildPrep plus Run over
// a campaign already read into in-memory Shards — at N shards against the
// same code at one shard. On a machine with at least four cores the N-shard
// run must win by >= 2x — the whole point of sharding — and a regression
// that quietly serializes it (a stray lock on the hot path, a worker pool
// collapsing to one goroutine) fails here before it ships. Shards hold
// their samples encoded and each pass decodes every part on the goroutine
// that analyzes it, so both timings include that decode, at N shards spread
// over N goroutines and at one shard on one; reading the trace into the
// Shards stays outside them. The end-to-end ratio of the streaming
// one-worker AnalyzeCampaign to an N-shard in-memory analysis is logged
// alongside. On smaller machines both ratios are only logged: timing a 1-2
// core box proves nothing about the sharding, and the result-equality check
// still runs everywhere.
func TestMultiCoreSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup timing is noise under -short")
	}
	cfg, src, _ := benchCampaign(t)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	// Warm both paths first so page faults don't count.
	seqRes, err := core.AnalyzeCampaign(cfg, nil, src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := analyzeInShards(cfg, nil, src, workers, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatal("parallel analysis result differs from the one-worker run on the same trace")
	}

	// Best-of-N on each side: the minimum is robust against scheduler noise
	// in a way the mean is not, and N=3 keeps the test cheap.
	const rounds = 3
	best := func(run func() (time.Duration, error)) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			d, err := run()
			if err != nil {
				t.Fatal(err)
			}
			bestD = min(bestD, d)
		}
		return bestD
	}
	meta := analysis.MetaFor(cfg) // benchCampaign is 2013: no update release
	shardCompute := func(n int) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			sh := analysis.NewShards(n)
			defer sh.Release()
			if err := src(sh.Add); err != nil {
				return 0, err
			}
			t0 := time.Now()
			prep, err := analysis.BuildPrep(meta, sh, nil)
			if err != nil {
				return 0, err
			}
			if err := analysis.Run(sh, prep, battery(meta, prep), nil); err != nil {
				return 0, err
			}
			return time.Since(t0), nil
		}
	}
	timed := func(run func() error) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			t0 := time.Now()
			err := run()
			return time.Since(t0), err
		}
	}
	one := best(shardCompute(1))
	many := best(shardCompute(workers))
	stream := best(timed(func() error {
		_, err := core.AnalyzeCampaign(cfg, nil, src, core.Options{})
		return err
	}))
	par := best(timed(func() error {
		_, err := analyzeInShards(cfg, nil, src, workers, core.Options{})
		return err
	}))

	speedup := float64(one) / float64(many)
	t.Logf("shard compute: 1 shard %v, %d shards %v: %.2fx on GOMAXPROCS=%d",
		one, workers, many, speedup, runtime.GOMAXPROCS(0))
	t.Logf("end to end: streaming one-worker %v, in-memory %d workers %v: %.2fx",
		stream, workers, par, float64(stream)/float64(par))
	if runtime.GOMAXPROCS(0) >= 4 && speedup < 2 {
		t.Errorf("%d-shard analysis only %.2fx faster than 1 shard on %d cores; want >= 2x",
			workers, speedup, runtime.GOMAXPROCS(0))
	}
}

// battery is a representative second-pass battery: every exact analyzer
// that needs no update release.
func battery(meta analysis.Meta, prep *analysis.Prep) []analysis.Analyzer {
	return []analysis.Analyzer{
		analysis.NewAggregate(meta), analysis.NewWiFiRatios(meta, prep),
		analysis.NewInterfaceState(meta), analysis.NewLocationTraffic(meta, prep),
		analysis.NewAPsPerDay(meta, prep), analysis.NewAssocDuration(meta, prep, false),
		analysis.NewPublicAvailability(prep), analysis.NewAppBreakdown(meta, prep),
		analysis.NewBattery(meta), analysis.NewCarrierRatios(),
	}
}
