package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smartusage/internal/trace"
)

func TestMixForNormalized(t *testing.T) {
	for year := 2013; year <= 2015; year++ {
		for sc := Scene(0); sc < NumScenes; sc++ {
			m, err := MixFor(year, sc)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, w := range m.Weights {
				if w < 0 {
					t.Fatalf("%d/%v negative weight", year, sc)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%d/%v weights sum %g", year, sc, sum)
			}
		}
	}
}

func TestMixForErrors(t *testing.T) {
	if _, err := MixFor(2012, SceneWiFiHome); err == nil {
		t.Fatal("unknown year accepted")
	}
	if _, err := MixFor(2014, NumScenes); err == nil {
		t.Fatal("invalid scene accepted")
	}
}

// The mixes transcribe Table 6's headline structure: browser dominates
// cellular scenes every year; video leads WiFi-at-home from 2014.
func TestMixShapeMatchesPaper(t *testing.T) {
	for year := 2013; year <= 2015; year++ {
		m, _ := MixFor(year, SceneCellHome)
		top := argmax(m.Weights)
		if top != trace.CatBrowser {
			t.Errorf("%d cell-home top category %v, want browser", year, top)
		}
	}
	for _, year := range []int{2014, 2015} {
		m, _ := MixFor(year, SceneWiFiHome)
		if top := argmax(m.Weights); top != trace.CatVideo {
			t.Errorf("%d wifi-home top category %v, want video", year, top)
		}
	}
	// 2013 public WiFi: browser holds ~44%.
	m, _ := MixFor(2013, SceneWiFiPublic)
	if m.Weights[trace.CatBrowser] < 0.40 {
		t.Errorf("2013 wifi-public browser weight %.2f", m.Weights[trace.CatBrowser])
	}
}

func argmax(ws [trace.NumCategories]float64) trace.Category {
	best := trace.Category(0)
	for c := trace.Category(1); c < trace.NumCategories; c++ {
		if ws[c] > ws[best] {
			best = c
		}
	}
	return best
}

func TestTXRatio(t *testing.T) {
	if TXRatio(trace.CatVideo) >= TXRatio(trace.CatProductivity) {
		t.Fatal("video must be download-dominated, productivity upload-heavy")
	}
	if TXRatio(trace.CatProductivity) <= 1 {
		t.Fatal("online storage should upload more than it downloads (Table 7)")
	}
	if TXRatio(trace.Category(200)) != 0.1 {
		t.Fatal("invalid category should fall back to default ratio")
	}
}

// Property: Allocate conserves the download volume exactly.
func TestAllocateConservesRX(t *testing.T) {
	f := func(seed int64, rxRaw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := MixFor(2015, SceneWiFiHome)
		aff := NewAffinity(rng.Float64(), rng)
		rx := uint64(rxRaw)
		w := m.Weigh(&aff)
		allocs := w.Allocate(nil, rx, rng)
		var sum uint64
		for _, a := range allocs {
			if a.RX == 0 && a.TX == 0 {
				return false // zero allocations must be omitted
			}
			sum += a.RX
		}
		return sum == rx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateZero(t *testing.T) {
	m, _ := MixFor(2014, SceneCellOther)
	w := m.Weigh(nil)
	if got := w.Allocate(nil, 0, rand.New(rand.NewSource(1))); got != nil {
		t.Fatalf("zero volume allocated: %v", got)
	}
}

func TestAllocateNilAffinity(t *testing.T) {
	m, _ := MixFor(2014, SceneCellOther)
	w := m.Weigh(nil)
	allocs := w.Allocate(nil, 1_000_000, rand.New(rand.NewSource(1)))
	if len(allocs) == 0 {
		t.Fatal("no allocations")
	}
}

// Heavy users' affinity must shift expected video volume upward relative to
// light users (§3.6: video drops out of light users' top five).
func TestAffinityHeavynessSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, _ := MixFor(2015, SceneWiFiHome)
	videoShare := func(heavyness float64) float64 {
		var video, total uint64
		for i := 0; i < 400; i++ {
			aff := NewAffinity(heavyness, rng)
			w := m.Weigh(&aff)
			for _, a := range w.Allocate(nil, 10_000_000, rng) {
				total += a.RX
				if a.Category == trace.CatVideo {
					video += a.RX
				}
			}
		}
		return float64(video) / float64(total)
	}
	light, heavy := videoShare(0.05), videoShare(0.95)
	if heavy <= light {
		t.Fatalf("video share: heavy %.3f <= light %.3f", heavy, light)
	}
}

func TestSceneString(t *testing.T) {
	names := map[Scene]string{
		SceneCellHome: "cell-home", SceneCellOther: "cell-other",
		SceneWiFiHome: "wifi-home", SceneWiFiPublic: "wifi-public",
		SceneWiFiOther: "wifi-other",
	}
	for sc, want := range names {
		if sc.String() != want {
			t.Errorf("%d.String() = %q", sc, sc.String())
		}
	}
}

// TX derived from allocations must stay within plausible bounds of the
// category ratios (jitter is 0.6-1.4x).
func TestAllocateTXBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := MixFor(2013, SceneCellHome)
	w := m.Weigh(nil)
	for i := 0; i < 200; i++ {
		for _, a := range w.Allocate(nil, 5_000_000, rng) {
			ratio := TXRatio(a.Category)
			lo := uint64(float64(a.RX) * ratio * 0.6)
			hi := uint64(float64(a.RX)*ratio*1.4) + 1
			if a.TX < lo || a.TX > hi {
				t.Fatalf("category %v: TX %d outside [%d,%d] for RX %d",
					a.Category, a.TX, lo, hi, a.RX)
			}
		}
	}
}

func TestDayAdjusted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := NewAffinity(0.5, rng)

	// A median day depresses video below the user's base appetite.
	med := base.DayAdjusted(1.0)
	if med.Mult[trace.CatVideo] >= base.Mult[trace.CatVideo] {
		t.Fatal("median day should depress video (§3.6: light users watch little)")
	}
	// A heavy day amplifies it.
	heavy := base.DayAdjusted(4.0)
	if heavy.Mult[trace.CatVideo] <= base.Mult[trace.CatVideo] {
		t.Fatal("heavy day should amplify video")
	}
	// Monotone in the ratio.
	if heavy.Mult[trace.CatVideo] <= med.Mult[trace.CatVideo] {
		t.Fatal("video appetite not monotone in day volume")
	}
	// Clamped at the extremes: no zero-outs, no explosions.
	lo := base.DayAdjusted(0.0001)
	hi := base.DayAdjusted(1000)
	if lo.Mult[trace.CatVideo] <= 0 {
		t.Fatal("lower clamp failed")
	}
	if hi.Mult[trace.CatVideo] > base.Mult[trace.CatVideo]*3+1e-9 {
		t.Fatalf("upper clamp failed: %g vs base %g", hi.Mult[trace.CatVideo], base.Mult[trace.CatVideo])
	}
	// Non-elastic categories are untouched.
	if med.Mult[trace.CatBrowser] != base.Mult[trace.CatBrowser] {
		t.Fatal("browser appetite should not depend on day volume")
	}
}

// mixFrom spreads the non-itemized mass over the background shares; the
// itemized categories must keep (at least) their Table 6 proportions.
func TestMixItemizedDominance(t *testing.T) {
	m, _ := MixFor(2013, SceneWiFiPublic) // browser itemized at 44.1
	if m.Weights[trace.CatBrowser] < 0.40 {
		t.Fatalf("browser weight %.2f, itemized 44.1%%", m.Weights[trace.CatBrowser])
	}
	// Background-only categories get something, but far less.
	if m.Weights[trace.CatMedical] >= m.Weights[trace.CatBrowser]/10 {
		t.Fatalf("background category overweighted: %g", m.Weights[trace.CatMedical])
	}
	if m.Weights[trace.CatMedical] <= 0 {
		t.Fatal("background category starved")
	}
}
