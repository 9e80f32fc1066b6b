// Package apps models application-level traffic: the category mixes the
// paper reports for each (interface, location) scene in Tables 6 and 7, the
// upload/download asymmetry per category, and user-level category
// affinities (heavy hitters skew to video; light users barely watch any,
// §3.6).
package apps

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"smartusage/internal/trace"
)

// Scene is the (interface, location) context of Tables 6/7: the paper
// breaks application traffic out by cellular-at-home, cellular-elsewhere,
// WiFi-at-home, and WiFi-on-public networks; WiFi at offices and open APs
// is a fifth context we keep separate.
type Scene uint8

// Scenes.
const (
	SceneCellHome Scene = iota
	SceneCellOther
	SceneWiFiHome
	SceneWiFiPublic
	SceneWiFiOther
	NumScenes
)

// String implements fmt.Stringer.
func (s Scene) String() string {
	switch s {
	case SceneCellHome:
		return "cell-home"
	case SceneCellOther:
		return "cell-other"
	case SceneWiFiHome:
		return "wifi-home"
	case SceneWiFiPublic:
		return "wifi-public"
	case SceneWiFiOther:
		return "wifi-other"
	}
	return fmt.Sprintf("scene(%d)", uint8(s))
}

// Mix is a normalized download-volume weight per category for one scene.
type Mix struct {
	Weights [trace.NumCategories]float64
}

// w is shorthand for building mixes.
type w struct {
	c trace.Category
	f float64
}

// background categories receive the weight mass the paper does not itemize
// (the tables list only the top five). Shares are relative.
var background = []w{
	{trace.CatGame, 3}, {trace.CatMusic, 2}, {trace.CatShopping, 2},
	{trace.CatTools, 1.5}, {trace.CatEntertainment, 1.5}, {trace.CatTravel, 1},
	{trace.CatPhoto, 1}, {trace.CatMaps, 1}, {trace.CatWeather, 0.5},
	{trace.CatBooks, 0.5}, {trace.CatEducation, 0.5}, {trace.CatFinance, 0.5},
	{trace.CatSports, 0.5}, {trace.CatPersonalization, 0.3}, {trace.CatMedical, 0.2},
	{trace.CatSystem, 0.5}, {trace.CatBusiness, 0.8}, {trace.CatHealth, 0.6},
	{trace.CatLifestyle, 1}, {trace.CatSocial, 2}, {trace.CatNews, 1.5},
	{trace.CatCommunication, 2}, {trace.CatProductivity, 1.2},
	{trace.CatDownloads, 0.8}, {trace.CatVideo, 2}, {trace.CatBrowser, 4},
}

// mixFrom builds a Mix whose itemized weights follow the paper's Table 6
// percentages, with the remaining mass spread over the background shares.
func mixFrom(top []w) Mix {
	var m Mix
	var itemized float64
	for _, e := range top {
		m.Weights[e.c] += e.f
		itemized += e.f
	}
	rest := 100 - itemized
	if rest < 0 {
		rest = 0
	}
	var bgTotal float64
	for _, e := range background {
		bgTotal += e.f
	}
	for _, e := range background {
		m.Weights[e.c] += rest * e.f / bgTotal
	}
	// Normalize to 1.
	var total float64
	for _, v := range m.Weights {
		total += v
	}
	for i := range m.Weights {
		m.Weights[i] /= total
	}
	return m
}

// mixes indexes [year-2013][scene]. Top-five entries transcribe Table 6
// (RX percentages); productivity weight in WiFi scenes is raised above
// background to reproduce Table 7's upload dominance of online storage.
var mixes = [3][NumScenes]Mix{
	{ // 2013
		SceneCellHome:   mixFrom([]w{{trace.CatBrowser, 38.0}, {trace.CatSocial, 7.3}, {trace.CatCommunication, 6.2}, {trace.CatVideo, 5.7}, {trace.CatNews, 2.0}}),
		SceneCellOther:  mixFrom([]w{{trace.CatBrowser, 38.5}, {trace.CatCommunication, 7.7}, {trace.CatSocial, 7.6}, {trace.CatNews, 2.6}, {trace.CatVideo, 2.1}}),
		SceneWiFiHome:   mixFrom([]w{{trace.CatBrowser, 28.0}, {trace.CatSocial, 6.8}, {trace.CatCommunication, 4.3}, {trace.CatVideo, 4.0}, {trace.CatNews, 3.5}, {trace.CatProductivity, 3.0}}),
		SceneWiFiPublic: mixFrom([]w{{trace.CatBrowser, 44.1}, {trace.CatSocial, 4.0}, {trace.CatLifestyle, 3.3}, {trace.CatCommunication, 3.0}, {trace.CatNews, 2.9}}),
		SceneWiFiOther:  mixFrom([]w{{trace.CatBrowser, 40.0}, {trace.CatSocial, 5.0}, {trace.CatCommunication, 5.0}, {trace.CatNews, 3.0}, {trace.CatVideo, 3.0}}),
	},
	{ // 2014
		SceneCellHome:   mixFrom([]w{{trace.CatBrowser, 36.4}, {trace.CatVideo, 7.4}, {trace.CatCommunication, 7.4}, {trace.CatSocial, 6.3}, {trace.CatNews, 6.2}}),
		SceneCellOther:  mixFrom([]w{{trace.CatBrowser, 31.4}, {trace.CatCommunication, 9.9}, {trace.CatVideo, 8.0}, {trace.CatNews, 6.6}, {trace.CatGame, 6.3}}),
		SceneWiFiHome:   mixFrom([]w{{trace.CatVideo, 30.4}, {trace.CatBrowser, 20.7}, {trace.CatCommunication, 6.5}, {trace.CatNews, 6.0}, {trace.CatDownloads, 4.7}, {trace.CatProductivity, 4.0}}),
		SceneWiFiPublic: mixFrom([]w{{trace.CatDownloads, 22.5}, {trace.CatBrowser, 21.9}, {trace.CatVideo, 13.8}, {trace.CatLifestyle, 4.9}, {trace.CatHealth, 3.2}}),
		SceneWiFiOther:  mixFrom([]w{{trace.CatBrowser, 30.0}, {trace.CatVideo, 10.0}, {trace.CatCommunication, 7.0}, {trace.CatNews, 5.0}, {trace.CatDownloads, 5.0}}),
	},
	{ // 2015
		SceneCellHome:   mixFrom([]w{{trace.CatBrowser, 28.3}, {trace.CatVideo, 11.0}, {trace.CatCommunication, 9.5}, {trace.CatSocial, 7.9}, {trace.CatNews, 5.8}}),
		SceneCellOther:  mixFrom([]w{{trace.CatBrowser, 28.3}, {trace.CatCommunication, 12.7}, {trace.CatVideo, 12.0}, {trace.CatNews, 7.6}, {trace.CatSocial, 6.9}}),
		SceneWiFiHome:   mixFrom([]w{{trace.CatVideo, 25.4}, {trace.CatBrowser, 20.0}, {trace.CatDownloads, 11.1}, {trace.CatCommunication, 7.4}, {trace.CatSocial, 4.7}, {trace.CatProductivity, 4.5}}),
		SceneWiFiPublic: mixFrom([]w{{trace.CatBrowser, 24.0}, {trace.CatVideo, 19.6}, {trace.CatDownloads, 9.9}, {trace.CatLifestyle, 4.1}, {trace.CatCommunication, 3.6}}),
		SceneWiFiOther:  mixFrom([]w{{trace.CatBrowser, 28.0}, {trace.CatVideo, 12.0}, {trace.CatCommunication, 8.0}, {trace.CatDownloads, 6.0}, {trace.CatNews, 5.0}}),
	},
}

// MixFor returns the download-volume category mix of a campaign year and
// scene.
func MixFor(year int, scene Scene) (Mix, error) {
	if year < 2013 || year > 2015 {
		return Mix{}, fmt.Errorf("apps: no mix for year %d", year)
	}
	if scene >= NumScenes {
		return Mix{}, fmt.Errorf("apps: invalid scene %d", scene)
	}
	return mixes[year-2013][scene], nil
}

// txRatio is the per-category upload:download byte ratio. Streaming and
// bulk download categories are download-dominated; online storage
// (productivity) uploads more than it downloads, which drives Table 7.
var txRatio = [trace.NumCategories]float64{
	trace.CatBrowser:         0.10,
	trace.CatSocial:          0.35,
	trace.CatVideo:           0.035,
	trace.CatCommunication:   0.40,
	trace.CatNews:            0.06,
	trace.CatGame:            0.18,
	trace.CatMusic:           0.05,
	trace.CatTravel:          0.10,
	trace.CatShopping:        0.10,
	trace.CatDownloads:       0.02,
	trace.CatEntertainment:   0.10,
	trace.CatTools:           0.15,
	trace.CatProductivity:    1.9,
	trace.CatLifestyle:       0.12,
	trace.CatHealth:          0.20,
	trace.CatBusiness:        0.60,
	trace.CatSystem:          0.02,
	trace.CatBooks:           0.05,
	trace.CatEducation:       0.08,
	trace.CatFinance:         0.15,
	trace.CatPhoto:           0.80,
	trace.CatWeather:         0.05,
	trace.CatMaps:            0.08,
	trace.CatSports:          0.08,
	trace.CatPersonalization: 0.05,
	trace.CatMedical:         0.10,
}

// TXRatio returns the upload:download ratio of a category.
func TXRatio(c trace.Category) float64 {
	if !c.Valid() {
		return 0.1
	}
	return txRatio[c]
}

// Affinity is a per-user multiplicative preference over categories.
// Affinities modulate the scene mixes so that, e.g., heavy hitters consume
// disproportionate video while video drops out of light users' top five
// (§3.6).
type Affinity struct {
	Mult [trace.NumCategories]float64
}

// NewAffinity draws a user's category preferences. heavyness in [0, 1]
// scales the video/download appetite; rng jitters every category so that no
// two users share the exact mix.
func NewAffinity(heavyness float64, rng *rand.Rand) Affinity {
	var a Affinity
	for i := range a.Mult {
		// Log-normal jitter with sigma ~0.5.
		a.Mult[i] = lognorm(rng, 0, 0.5)
	}
	a.Mult[trace.CatVideo] *= 0.45 + 1.4*heavyness
	a.Mult[trace.CatDownloads] *= 0.65 + 0.9*heavyness
	a.Mult[trace.CatProductivity] *= 0.7 + 0.8*heavyness
	return a
}

func lognorm(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// DayAdjusted returns a copy of the affinity with the bandwidth-elastic
// categories rescaled for a day whose demand is ratio times the panel
// median. Streaming is what makes a heavy day heavy — and a light day
// light: the paper finds video absent from light (median) users' top
// categories even though it leads overall WiFi volume (§3.6). The scaling
// is superlinear and below unity at the median, so video volume
// concentrates in the heavy tail.
func (a Affinity) DayAdjusted(ratio float64) Affinity {
	f := 0.32 * math.Pow(ratio, 1.4)
	if f < 0.08 {
		f = 0.08
	}
	if f > 3 {
		f = 3
	}
	out := a
	out.Mult[trace.CatVideo] *= f
	out.Mult[trace.CatDownloads] *= math.Sqrt(f)
	return out
}

// Allocation is one category's share of a traffic interval.
type Allocation struct {
	Category trace.Category
	RX       uint64
	TX       uint64
}

// Weights is a scene mix weighed by one user-day's affinity: the effective
// per-category weights that Allocate draws from, and their total. The inputs
// change once per user-day, so a simulator weighs each scene once per day
// and allocates every interval of that day from the result.
type Weights struct {
	eff   [trace.NumCategories]float64
	total float64
}

// Allocate tracks the categories it drew in a uint64 bitmask.
var _ [64 - trace.NumCategories]struct{}

// Weigh modulates the mix by the user affinity; a nil affinity leaves the
// mix as it is.
func (m Mix) Weigh(aff *Affinity) Weights {
	var w Weights
	for i := range w.eff {
		v := m.Weights[i]
		if aff != nil {
			v *= aff.Mult[i]
		}
		w.eff[i] = v
		w.total += v
	}
	return w
}

// Allocate splits rxBytes of download volume across categories according to
// the weights, appending per-category RX and the derived TX to dst. The
// split draws a small number of weighted chunks so that individual 10-minute
// samples carry a handful of active categories, as real per-interval
// accounting does. Allocations with zero RX and TX are omitted, so nothing
// is appended for zero volume. The total RX appended equals rxBytes.
//
// The random draws are the chunk draws in order, then one TX draw per
// category that received volume, in ascending category order.
func (w *Weights) Allocate(dst []Allocation, rxBytes uint64, rng *rand.Rand) []Allocation {
	if rxBytes == 0 || w.total == 0 {
		return dst
	}
	const chunks = 5
	var rx [trace.NumCategories]uint64
	var drawn uint64 // bit c is set once category c has drawn a chunk
	per := rxBytes / chunks
	rem := rxBytes - per*chunks
	for k := 0; k < chunks; k++ {
		c := sampleWeighted(w.eff[:], w.total, rng)
		amt := per
		if k == 0 {
			amt += rem
		}
		rx[c] += amt
		drawn |= 1 << c
	}
	for ; drawn != 0; drawn &= drawn - 1 {
		cat := trace.Category(bits.TrailingZeros64(drawn))
		v := rx[cat]
		if v == 0 {
			continue // drew only zero-byte chunks
		}
		tx := uint64(float64(v) * txRatio[cat] * (0.6 + 0.8*rng.Float64()))
		dst = append(dst, Allocation{Category: cat, RX: v, TX: tx})
	}
	return dst
}

func sampleWeighted(ws []float64, total float64, rng *rand.Rand) int {
	r := rng.Float64() * total
	for i, v := range ws {
		if r -= v; r < 0 {
			return i
		}
	}
	return len(ws) - 1
}
