package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// This file is the exactness-tolerance suite for sketch mode: every figure
// with a store runs in both stores over the equivalence fixture, and each
// output is held to its documented tolerance — DeepEqual for everything
// integral (counts, shares, fractions, maxima) and a per-figure epsilon for
// quantile-derived numbers. The tolerances here are the same ones DESIGN.md's
// "Sketch-based analysis" table documents; tightening one without the other
// should fail review.

// Per-figure tolerances. The sketch guarantees ~1% relative error per bin
// boundary; interpolation across a boundary can double it, and tiny values
// near the sketch floor need an absolute term.
const (
	durQuantileRel = 0.025 // association durations (hours)
	durQuantileAbs = 0.2
	volQuantileRel = 0.025 // daily volumes (MB)
	volQuantileAbs = 0.05
	hllRel         = 0.05 // distinct-count estimates
)

// withinTol reports |got-want| <= max(abs, rel*|want|).
func withinTol(got, want, rel, abs float64) bool {
	d := math.Abs(got - want)
	return d <= abs || d <= rel*math.Abs(want)
}

// sketchEquivalenceBattery bundles one fresh instance of every streamed
// analyzer of a sketch-mode run, with the cleaned/raw split Run expects:
// AssocDuration in its sketch store, APsPerDay (integer counts, the same in
// both modes) and SketchCardinality. Keeping construction in one place lets
// the shardmerge lint verify each sketch-backed analyzer is enrolled in the
// equivalence suite.
type sketchEquivalenceBattery struct {
	durations *AssocDuration
	apsPerDay *APsPerDay
	card      *SketchCardinality
}

func newSketchEquivalenceBattery(meta Meta, prep *Prep) (sketchEquivalenceBattery, []Analyzer, []Analyzer) {
	b := sketchEquivalenceBattery{
		durations: NewAssocDuration(meta, prep, true),
		apsPerDay: NewAPsPerDay(meta, prep),
		card:      NewSketchCardinality(),
	}
	cleaned := []Analyzer{b.durations, b.apsPerDay}
	raw := []Analyzer{b.card}
	return b, cleaned, raw
}

// apSetsOracle is the map-of-sets form of APsPerDay: one distinct-pair set
// per user-day, kept to the end of the pass and folded in Result, with
// excluded days skipped there. It needs no per-device stream order, which
// makes it the oracle for APsPerDay's day-flush accumulation.
type apSetsOracle struct {
	meta Meta
	prep *Prep
	sets map[UserDayKey]map[APKey]bool
}

func (a *apSetsOracle) Add(s *trace.Sample) {
	ap := s.AssociatedAP()
	if ap == nil {
		return
	}
	key := UserDayKey{Device: s.Device, Day: a.meta.Day(s.Time)}
	set := a.sets[key]
	if set == nil {
		set = make(map[APKey]bool, 2)
		a.sets[key] = set
	}
	set[APKey{BSSID: ap.BSSID, ESSID: ap.ESSID}] = true
}

func (a *apSetsOracle) NewShard() Analyzer {
	return &apSetsOracle{meta: a.meta, prep: a.prep, sets: make(map[UserDayKey]map[APKey]bool)}
}

func (a *apSetsOracle) Merge(shard Analyzer) {
	for key, set := range shard.(*apSetsOracle).sets {
		a.sets[key] = set
	}
}

func (a *apSetsOracle) Result() APsPerDayResult {
	r := APsPerDayResult{Breakdown: make(map[HPO]float64)}
	var totals [3]int
	var multi int
	for key, set := range a.sets {
		if ud := a.prep.UserDays[key]; ud != nil && ud.Excluded {
			continue
		}
		n := len(set)
		if n > r.MaxNetworks {
			r.MaxNetworks = n
		}
		var hpo HPO
		for pair := range set {
			switch a.prep.ClassOf(pair) {
			case APHome:
				hpo.H++
			case APPublic:
				hpo.P++
			default:
				hpo.O++
			}
		}
		r.Breakdown[hpo]++
		slot := n
		if slot > 4 {
			slot = 4
		}
		buckets := [3]bool{true, false, false}
		switch a.prep.RankOf(key.Device, key.Day) {
		case RankHeavy:
			buckets[1] = true
		case RankLight:
			buckets[2] = true
		}
		for b, on := range buckets {
			if on {
				r.CountShares[b][slot]++
				totals[b]++
			}
		}
		if n >= 2 {
			multi++
		}
	}
	for b := range r.CountShares {
		if totals[b] == 0 {
			continue
		}
		for k := range r.CountShares[b] {
			r.CountShares[b][k] /= float64(totals[b])
		}
	}
	if totals[0] > 0 {
		r.MultiAPShare = float64(multi) / float64(totals[0])
		for k := range r.Breakdown {
			r.Breakdown[k] /= float64(totals[0])
		}
	}
	return r
}

// TestSketchEquivalence runs every figure with a store in both of its
// stores over the equivalence fixture and holds the sketch store to the
// tolerance table; APsPerDay, which has no store, must DeepEqual its
// map-of-sets oracle.
func TestSketchEquivalence(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	prep, err := BuildPrep(meta, Stream(src, 1), release)
	if err != nil {
		t.Fatal(err)
	}

	oracleAPD := &apSetsOracle{meta: meta, prep: prep, sets: make(map[UserDayKey]map[APKey]bool)}
	exactDur := NewAssocDuration(meta, prep, false)
	if err := inlineRun(src, prep, []Analyzer{oracleAPD, exactDur}, nil); err != nil {
		t.Fatal(err)
	}
	wantAPD := oracleAPD.Result()
	wantDur := exactDur.Result()
	wantDV, wantVS := prep.Volumes(false)

	b, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
	if err := Run(Stream(src, 1), prep, cleaned, raw); err != nil {
		t.Fatal(err)
	}

	t.Run("apsPerDay", func(t *testing.T) {
		// Per-day composition statistics are pure integer counting: the
		// day-flush analyzer must be bit-identical to the oracle, not
		// merely close.
		if got := b.apsPerDay.Result(); !reflect.DeepEqual(wantAPD, got) {
			t.Errorf("APsPerDay differs from the map-of-sets oracle:\n got %+v\nwant %+v", got, wantAPD)
		}
	})

	t.Run("durations", func(t *testing.T) {
		got := b.durations.Result()
		for c := APClass(0); c < NumAPClasses; c++ {
			// The sketch store never materializes the raw hours.
			if raw := got.Hours[c].Values(); raw != nil {
				t.Errorf("%v: sketch result carries %d raw hours", c, len(raw))
			}
			exact := wantDur.Hours[c].Values()
			if n := got.Hours[c].Count(); n != len(exact) {
				t.Errorf("%v: sketch holds %d runs, exact %d", c, n, len(exact))
			}
			if len(exact) == 0 {
				continue
			}
			for _, p := range []float64{0.10, 0.50, 0.90, 0.99} {
				want := stats.Quantile(exact, p)
				if got := got.Hours[c].Quantile(p); !withinTol(got, want, durQuantileRel, durQuantileAbs) {
					t.Errorf("%v q%.2f: sketch %.4fh, exact %.4fh", c, p, got, want)
				}
			}
			if !withinTol(got.P90Hours[c], wantDur.P90Hours[c], durQuantileRel, durQuantileAbs) {
				t.Errorf("%v P90: sketch %.4fh, exact %.4fh", c, got.P90Hours[c], wantDur.P90Hours[c])
			}
			// The CCDF surfaces agree at the exact path's own support points.
			for _, x := range []float64{0.2, 1, 5, 12} {
				we, ge := wantDur.CCDF[c].At(x), got.CCDF[c].At(x)
				if math.Abs(we-ge) > 0.02 {
					t.Errorf("%v CCDF(%g): sketch %.4f, exact %.4f", c, x, ge, we)
				}
			}
		}
	})

	t.Run("volumes", func(t *testing.T) {
		gotDV, gotVS := prep.Volumes(true)
		// User-day population, silent-interface fractions, and the heaviest
		// day aggregate the same integers in both stores: exact equality.
		if gotDV.ZeroCellFrac != wantDV.ZeroCellFrac || gotDV.ZeroWiFiFrac != wantDV.ZeroWiFiFrac {
			t.Errorf("zero fractions: sketch (%g, %g), exact (%g, %g)",
				gotDV.ZeroCellFrac, gotDV.ZeroWiFiFrac, wantDV.ZeroCellFrac, wantDV.ZeroWiFiFrac)
		}
		if gotDV.MaxRXMB != wantDV.MaxRXMB {
			t.Errorf("MaxRXMB: sketch %g, exact %g", gotDV.MaxRXMB, wantDV.MaxRXMB)
		}
		series := []struct {
			name      string
			got, want *Dist
		}{
			{"AllRX", &gotDV.AllRX, &wantDV.AllRX},
			{"AllTX", &gotDV.AllTX, &wantDV.AllTX},
			{"CellRX", &gotDV.CellRX, &wantDV.CellRX},
			{"CellTX", &gotDV.CellTX, &wantDV.CellTX},
			{"WiFiRX", &gotDV.WiFiRX, &wantDV.WiFiRX},
			{"WiFiTX", &gotDV.WiFiTX, &wantDV.WiFiTX},
		}
		for _, s := range series {
			exact := s.want.Values()
			if s.got.Values() != nil {
				t.Errorf("%s: sketch result carries raw volumes", s.name)
			}
			if n := s.got.Count(); n != len(exact) {
				t.Errorf("%s: sketch holds %d user-days, exact %d", s.name, n, len(exact))
				continue
			}
			if len(exact) == 0 {
				continue
			}
			for _, p := range []float64{0.10, 0.50, 0.90, 0.99} {
				want := stats.Quantile(exact, p)
				if got := s.got.Quantile(p); !withinTol(got, want, volQuantileRel, volQuantileAbs) {
					t.Errorf("%s q%.2f: sketch %.4f MB, exact %.4f MB", s.name, p, got, want)
				}
			}
		}
		if gotVS.Year != wantVS.Year {
			t.Errorf("VolumeStats year: %d vs %d", gotVS.Year, wantVS.Year)
		}
		pairs := []struct {
			name      string
			got, want float64
		}{
			{"MedianAll", gotVS.MedianAll, wantVS.MedianAll},
			{"MedianCell", gotVS.MedianCell, wantVS.MedianCell},
			{"MedianWiFi", gotVS.MedianWiFi, wantVS.MedianWiFi},
			{"MeanAll", gotVS.MeanAll, wantVS.MeanAll},
			{"MeanCell", gotVS.MeanCell, wantVS.MeanCell},
			{"MeanWiFi", gotVS.MeanWiFi, wantVS.MeanWiFi},
		}
		for _, p := range pairs {
			if !withinTol(p.got, p.want, volQuantileRel, volQuantileAbs) {
				t.Errorf("VolumeStats %s: sketch %.4f, exact %.4f", p.name, p.got, p.want)
			}
		}
	})

	t.Run("cardinality", func(t *testing.T) {
		got := b.card.Result()
		// The stream counters are exact by construction — identical to the
		// prepass Cardinality.
		if got.Samples != prep.Card.Samples || got.AvailIntervals != prep.Card.AvailIntervals {
			t.Errorf("counters: sketch (%d, %d), prepass (%d, %d)",
				got.Samples, got.AvailIntervals, prep.Card.Samples, prep.Card.AvailIntervals)
		}
		if want := float64(len(prep.Devices)); !withinTol(float64(got.Devices), want, hllRel, 2) {
			t.Errorf("devices: estimated %d, exact %d", got.Devices, len(prep.Devices))
		}
		if want := float64(len(prep.APs)); !withinTol(float64(got.APs), want, hllRel, 2) {
			t.Errorf("APs: estimated %d, exact %d", got.APs, len(prep.APs))
		}
	})
}

// TestSketchShardEquivalence pins bit-identical determinism across the
// production shard engine: for every worker count and either input form, Run
// over the sketch battery must DeepEqual the inline oracle — the same
// guarantee the exact battery has, made possible by the sketches'
// integer-only merge state.
func TestSketchShardEquivalence(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	prep, err := inlinePrep(meta, src, release)
	if err != nil {
		t.Fatal(err)
	}
	results := func(run func(cleaned, raw []Analyzer) error) map[string]any {
		b, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
		if err := run(cleaned, raw); err != nil {
			t.Fatal(err)
		}
		return map[string]any{
			"durations": b.durations.Result(),
			"apsPerDay": b.apsPerDay.Result(),
			"card":      b.card.Result(),
		}
	}
	want := results(func(cleaned, raw []Analyzer) error {
		return inlineRun(src, prep, cleaned, raw)
	})
	for _, workers := range workerCounts() {
		for _, in := range inputForms(t, src, workers) {
			got := results(func(cleaned, raw []Analyzer) error {
				return Run(in, prep, cleaned, raw)
			})
			for name, w := range want {
				if !reflect.DeepEqual(w, got[name]) {
					t.Errorf("Run(%T, workers=%d): sketch %s differs from the inline oracle", in, workers, name)
				}
			}
		}
	}
}

// TestSketchMergeOrderInvariance goes beyond the shard engine's fixed
// device-hash partition and fold order: devices are split across shards at
// random and the shards folded in a random order, and the results must still
// DeepEqual the single-shard build. This is the analyzer-level face of the
// sketch package's merge-algebra property tests.
func TestSketchMergeOrderInvariance(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	prep, err := inlinePrep(meta, src, release)
	if err != nil {
		t.Fatal(err)
	}
	base, cleaned, raw := newSketchEquivalenceBattery(meta, prep)
	if err := inlineRun(src, prep, cleaned, raw); err != nil {
		t.Fatal(err)
	}
	wantDur := base.durations.Result()
	wantAPD := base.apsPerDay.Result()
	wantCard := base.card.Result()

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, shards := range []int{2, 3, 5, 8, 16} {
			parts := make([]sketchEquivalenceBattery, shards)
			partCleaned := make([][]Analyzer, shards)
			partRaw := make([][]Analyzer, shards)
			for i := range parts {
				parts[i], partCleaned[i], partRaw[i] = newSketchEquivalenceBattery(meta, prep)
			}
			// Random device-disjoint assignment; stream order per device is
			// preserved because samples dispatch one at a time.
			assign := make(map[trace.DeviceID]int)
			var upd updateMemo
			for i := range samples {
				s := &samples[i]
				w, ok := assign[s.Device]
				if !ok {
					w = rng.Intn(shards)
					assign[s.Device] = w
				}
				dispatch(s, prep, partCleaned[w], partRaw[w], &upd)
			}
			order := rng.Perm(shards)
			acc := parts[order[0]]
			for _, i := range order[1:] {
				acc.durations.Merge(parts[i].durations)
				acc.apsPerDay.Merge(parts[i].apsPerDay)
				acc.card.Merge(parts[i].card)
			}
			checks := []struct {
				name      string
				got, want any
			}{
				{"durations", acc.durations.Result(), wantDur},
				{"apsPerDay", acc.apsPerDay.Result(), wantAPD},
				{"card", acc.card.Result(), wantCard},
			}
			for _, c := range checks {
				if !reflect.DeepEqual(c.want, c.got) {
					t.Errorf("seed %d shards %d: %s differs from single build", seed, shards, c.name)
				}
			}
		}
	}
}
