// Package core is the public façade of the reproduction: it orchestrates a
// full campaign (world generation → simulation → prepass → analyzers →
// survey) and bundles every per-year experiment result, plus the
// cross-year aggregations (Table 3 growth, §4.1 implications).
//
// Typical use:
//
//	study, err := core.RunStudy(core.Options{Scale: 0.25, Seed: 42})
//	...
//	fmt.Println(study.Runs[2015].Ratios.All.MeanTrafficRatio)
package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"smartusage/internal/analysis"
	"smartusage/internal/config"
	"smartusage/internal/macro"
	"smartusage/internal/obs"
	"smartusage/internal/sim"
	"smartusage/internal/survey"
	"smartusage/internal/trace"
)

// Options configures a study run.
type Options struct {
	// Scale shrinks the panel; 1.0 reproduces the paper's ~1700 users per
	// campaign. Zero defaults to 0.25, which preserves every reported
	// shape at a fraction of the cost.
	Scale float64
	// Seed drives all randomness; zero defaults to 1.
	Seed int64
	// TraceDir, when non-empty, keeps each campaign's trace as
	// <TraceDir>/campaign-<year>.trace. Every run spools its trace and
	// streams both analysis passes from the file; without TraceDir the file
	// goes into a private directory under os.TempDir, removed before the
	// run returns, so a run needs temp disk for its trace (about 70 B per
	// sample).
	TraceDir string
	// Years restricts the campaigns to run; nil means all three.
	Years []int
	// AnalysisWorkers parallelizes the two analysis passes by sharding
	// samples across goroutines by device (results are identical
	// regardless); 0 means one worker, negative uses GOMAXPROCS.
	AnalysisWorkers int
	// SketchMode stores the quantile figures — daily volumes (Figs. 3-4,
	// Table 3) and association durations (Fig. 13) — in bounded-memory
	// quantile sketches (internal/sketch) instead of exact sorted samples,
	// and adds HLL panel and AP-census estimates (CampaignRun.SketchCard).
	// Each figure keeps its one analyzer; only the store changes.
	// Quantile-derived statistics then carry a documented ~1% relative
	// error, and second-pass analyzer memory stays O(devices); the prepass
	// keeps its per-user-day aggregates in both modes. See DESIGN.md
	// "Sketch-based analysis" for the per-figure tolerance table.
	SketchMode bool
	// Tracer, when non-nil, records stage spans (simulation, prepass,
	// analysis shards, merges) in Chrome trace format; see obs.NewTracer.
	// Every entry point that analyzes, AnalyzeCampaign included, also
	// installs it as the analysis engine's tracer for the life of the
	// process — the caller owns closing it.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Years == nil {
		o.Years = config.Years
	}
	return o
}

// analysisWorkers resolves AnalysisWorkers to a worker count; zero passes
// through, and analysis.Stream reads it as one.
func (o Options) analysisWorkers() int {
	if o.AnalysisWorkers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.AnalysisWorkers
}

// CampaignRun bundles one campaign's configuration, generated world, and
// every experiment result.
type CampaignRun struct {
	Cfg  config.Campaign
	Sim  *sim.Simulator
	Prep *analysis.Prep

	Overview    analysis.Overview
	Volumes     analysis.DailyVolumes
	VolumeStats analysis.VolumeStats
	UserTypes   analysis.UserTypes
	Aggregate   analysis.AggregateResult
	Ratios      analysis.WiFiRatiosResult
	IfaceState  analysis.InterfaceStateResult
	Census      analysis.APCensus
	Density     analysis.APDensity
	Location    analysis.LocationTrafficResult
	APsPerDay   analysis.APsPerDayResult
	Durations   analysis.AssocDurationResult
	BandShare   analysis.BandShare
	RSSI        analysis.RSSIResult
	Channels    analysis.ChannelsResult
	PublicAvail analysis.PublicAvailabilityResult
	// SketchCard is non-nil in sketch mode: HLL estimates of the panel and
	// AP-census cardinalities alongside the exact stream counters.
	SketchCard *analysis.SketchCardinalityResult
	Apps       analysis.AppBreakdownResult
	CapEffect  analysis.CapEffectResult
	Interfere  analysis.InterferenceResult
	Battery    analysis.BatteryResult
	Carriers   analysis.CarrierRatiosResult
	// Update is non-nil for the 2015 campaign.
	Update *analysis.UpdateTimingResult
	Survey *survey.Result
}

// RunCampaign simulates and analyzes one campaign year with the calibrated
// configuration.
func RunCampaign(year int, opts Options) (*CampaignRun, error) {
	opts = opts.withDefaults()
	cfg, err := config.ForYear(year, opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	return RunWithConfig(cfg, opts)
}

// RunWithConfig simulates and analyzes a custom campaign configuration —
// the entry point for what-if studies that perturb policies (see
// examples/capsim).
//
// The simulation is spooled as a binary trace, into opts.TraceDir when set
// and otherwise into a temporary directory removed before RunWithConfig
// returns (a failed removal fails the run), and AnalyzeCampaign streams
// both passes from the file, so memory stays bounded whatever the
// campaign's length.
func RunWithConfig(cfg config.Campaign, opts Options) (run *CampaignRun, err error) {
	opts = opts.withDefaults()
	sp := opts.Tracer.Start("core:campaign").Arg("year", strconv.Itoa(cfg.Year))
	defer sp.End()
	sm, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	dir := opts.TraceDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "smartusage-campaign-*"); err != nil {
			return nil, fmt.Errorf("core: trace dir: %w", err)
		}
		defer func() {
			if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
				run, err = nil, fmt.Errorf("core: remove trace dir: %w", rerr)
			}
		}()
	}
	path, err := spoolTrace(sm, dir, opts.Tracer)
	if err != nil {
		return nil, err
	}
	return AnalyzeCampaign(cfg, sm, analysis.FileSource(path), opts)
}

// spoolTrace executes the simulation once, writing the binary trace under
// dir, and returns the file path.
func spoolTrace(sm *sim.Simulator, dir string, tracer *obs.Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("core: trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("campaign-%d.trace", sm.Cfg.Year))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("core: create trace: %w", err)
	}
	w := trace.NewWriter(f)
	sp := tracer.Start("core:simulate").Arg("year", strconv.Itoa(sm.Cfg.Year))
	err = sm.Run(w.Write)
	sp.End()
	if err != nil {
		f.Close()
		return "", fmt.Errorf("core: simulate %d: %w", sm.Cfg.Year, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("core: close trace: %w", err)
	}
	return path, nil
}

// analyzerSet is the second-pass analyzer battery of one campaign.
type analyzerSet struct {
	sketch bool // the store of every quantile figure, volumes included

	agg          *analysis.Aggregate
	ratios       *analysis.WiFiRatios
	ifstate      *analysis.InterfaceState
	location     *analysis.LocationTraffic
	apsPerDay    *analysis.APsPerDay
	durations    *analysis.AssocDuration
	publicAvail  *analysis.PublicAvailability
	appBreak     *analysis.AppBreakdown
	battery      *analysis.Battery
	carriers     *analysis.CarrierRatios
	updateTiming *analysis.UpdateTiming
	// sketchCard is non-nil only in sketch mode.
	sketchCard *analysis.SketchCardinality

	cleaned []analysis.Analyzer
	raw     []analysis.Analyzer
}

func newAnalyzerSet(meta analysis.Meta, prep *analysis.Prep, release *time.Time, sketch bool) *analyzerSet {
	set := &analyzerSet{
		sketch:      sketch,
		agg:         analysis.NewAggregate(meta),
		ratios:      analysis.NewWiFiRatios(meta, prep),
		ifstate:     analysis.NewInterfaceState(meta),
		location:    analysis.NewLocationTraffic(meta, prep),
		apsPerDay:   analysis.NewAPsPerDay(meta, prep),
		durations:   analysis.NewAssocDuration(meta, prep, sketch),
		publicAvail: analysis.NewPublicAvailability(prep),
		appBreak:    analysis.NewAppBreakdown(meta, prep),
		battery:     analysis.NewBattery(meta),
		carriers:    analysis.NewCarrierRatios(),
	}
	set.cleaned = []analysis.Analyzer{
		set.agg, set.ratios, set.ifstate, set.location, set.apsPerDay,
		set.durations, set.publicAvail, set.appBreak, set.battery, set.carriers,
	}
	if sketch {
		set.sketchCard = analysis.NewSketchCardinality()
		set.raw = append(set.raw, set.sketchCard)
	}
	if release != nil {
		set.updateTiming = analysis.NewUpdateTiming(meta, prep, *release)
		set.raw = append(set.raw, set.updateTiming)
	}
	return set
}

// assembleRun finalizes every analyzer and prep-derived experiment into a
// CampaignRun, conducting the survey when the world is available.
func assembleRun(cfg config.Campaign, sm *sim.Simulator, prep *analysis.Prep, set *analyzerSet) (*CampaignRun, error) {
	run := &CampaignRun{
		Cfg:         cfg,
		Sim:         sm,
		Prep:        prep,
		Overview:    prep.Overview(),
		UserTypes:   prep.UserTypes(),
		Aggregate:   set.agg.Result(),
		Ratios:      set.ratios.Result(),
		IfaceState:  set.ifstate.Result(),
		Census:      prep.APCensus(),
		Density:     prep.APDensity(),
		Location:    set.location.Result(),
		APsPerDay:   set.apsPerDay.Result(),
		Durations:   set.durations.Result(),
		BandShare:   prep.BandShare(),
		RSSI:        prep.RSSI(),
		Channels:    prep.Channels(),
		PublicAvail: set.publicAvail.Result(),
		Apps:        set.appBreak.Result(),
		CapEffect:   prep.CapEffectWithThreshold(cfg.Cap.ThresholdBytes),
		Interfere:   prep.Interference(),
		Battery:     set.battery.Result(),
		Carriers:    set.carriers.Result(),
	}
	run.Volumes, run.VolumeStats = prep.Volumes(set.sketch)
	if set.sketchCard != nil {
		r := set.sketchCard.Result()
		run.SketchCard = &r
	}
	if set.updateTiming != nil {
		r := set.updateTiming.Result()
		run.Update = &r
	}
	if sm != nil {
		srng := rand.New(rand.NewSource(cfg.Seed + 7919))
		sv, err := survey.Conduct(cfg.Year, sm.Panel, prep, srng)
		if err != nil {
			return nil, fmt.Errorf("core: survey %d: %w", cfg.Year, err)
		}
		run.Survey = sv
	}
	return run, nil
}

// updateRelease returns the campaign's OS-update release instant, if any.
func updateRelease(cfg config.Campaign) *time.Time {
	if cfg.Update != nil {
		return &cfg.Update.Release
	}
	return nil
}

// AnalyzeCampaign runs the two-pass analysis pipeline over an existing
// sample source, streaming it once per pass on opts.AnalysisWorkers workers
// (zero means one, negative GOMAXPROCS). The calling goroutine decodes each
// pass into small batches while the workers analyze the batches before them,
// so memory stays bounded by the in-flight batches whatever the trace length.
// sm may be nil when analyzing a trace without its world (the survey is
// skipped in that case). Of opts, only the analysis options
// (AnalysisWorkers, SketchMode, Tracer) apply.
func AnalyzeCampaign(cfg config.Campaign, sm *sim.Simulator, src analysis.Source, opts Options) (*CampaignRun, error) {
	return analyze(cfg, sm, analysis.Stream(src, opts.analysisWorkers()), opts)
}

// AnalyzeCampaignShards runs the two-pass pipeline over a campaign its
// caller already holds in memory as pre-partitioned shards, each pass
// decoding every shard on a goroutine of its own (on the calling goroutine
// when sh has one shard); RunWithConfig never builds one. It releases sh
// before returning, successfully or not, so a caller that keeps sh does not
// keep the campaign; sh then holds no samples.
func AnalyzeCampaignShards(cfg config.Campaign, sm *sim.Simulator, sh *analysis.Shards, opts Options) (*CampaignRun, error) {
	defer sh.Release()
	return analyze(cfg, sm, sh, opts)
}

// analyze is the two-pass pipeline over either input form: the prepass, the
// campaign's analyzer battery over the second pass, and the assembled run.
func analyze(cfg config.Campaign, sm *sim.Simulator, in analysis.Input, opts Options) (*CampaignRun, error) {
	if opts.Tracer != nil {
		analysis.SetTracer(opts.Tracer)
	}
	meta := analysis.MetaFor(cfg)
	release := updateRelease(cfg)
	prep, err := analysis.BuildPrep(meta, in, release)
	if err != nil {
		return nil, fmt.Errorf("core: prepass %d: %w", cfg.Year, err)
	}
	set := newAnalyzerSet(meta, prep, release, opts.SketchMode)
	if err := analysis.Run(in, prep, set.cleaned, set.raw); err != nil {
		return nil, fmt.Errorf("core: analysis pass %d: %w", cfg.Year, err)
	}
	return assembleRun(cfg, sm, prep, set)
}

// Study holds every campaign's results.
type Study struct {
	Opts Options
	Runs map[int]*CampaignRun
}

// RunStudy runs all requested campaigns, each on its own goroutine
// (campaign years are independent), and assembles the results in year
// order. The first failing year's error (in Years order) is returned.
func RunStudy(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	runs := make([]*CampaignRun, len(opts.Years))
	errs := make([]error, len(opts.Years))
	var wg sync.WaitGroup
	for i, year := range opts.Years {
		wg.Add(1)
		go func(i, year int) {
			defer wg.Done()
			runs[i], errs[i] = RunCampaign(year, opts)
		}(i, year)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	st := &Study{Opts: opts, Runs: make(map[int]*CampaignRun, len(opts.Years))}
	for i, year := range opts.Years {
		st.Runs[year] = runs[i]
	}
	return st, nil
}

// Growth assembles Table 3 across the study's years (in ascending order).
func (s *Study) Growth() (analysis.GrowthTable, error) {
	var years []analysis.VolumeStats
	for _, y := range config.Years {
		if run, ok := s.Runs[y]; ok {
			years = append(years, run.VolumeStats)
		}
	}
	return analysis.Growth(years)
}

// Implications evaluates §4.1 from the 2015 campaign.
func (s *Study) Implications() (macro.Implications, error) {
	run, ok := s.Runs[2015]
	if !ok {
		return macro.Implications{}, fmt.Errorf("core: implications need the 2015 campaign")
	}
	homeShare := run.Location.Share[analysis.APHome]
	return macro.ComputeImplications(2015,
		run.VolumeStats.MedianCell, run.VolumeStats.MedianWiFi, homeShare)
}
