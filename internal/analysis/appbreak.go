package analysis

import (
	"sort"

	"smartusage/internal/trace"
)

// AppScene is a Table 6/7 column: application traffic broken out by
// interface and location.
type AppScene uint8

// Scenes of Tables 6 and 7.
const (
	AppCellHome AppScene = iota
	AppCellOther
	AppWiFiHome
	AppWiFiPublic
	NumAppScenes
)

// String implements fmt.Stringer.
func (s AppScene) String() string {
	switch s {
	case AppCellHome:
		return "cell-home"
	case AppCellOther:
		return "cell-other"
	case AppWiFiHome:
		return "wifi-home"
	case AppWiFiPublic:
		return "wifi-public"
	}
	return "appscene(?)"
}

// AppBreakdown reproduces Tables 6 and 7: per-scene application-category
// traffic shares from Android samples (iOS reports no per-app volumes).
// Home for cellular traffic is inferred from the device's home grid cell;
// home/public for WiFi from the associated AP class.
type AppBreakdown struct {
	meta  Meta
	prep  *Prep
	rank  memo[UserDayKey, Rank]
	home  memo[trace.DeviceID, homeCell]
	class memo[APKey, APClass]
	// rx/tx[scene][category], plus a separate light-user accumulation.
	rx, tx           [NumAppScenes][trace.NumCategories]float64
	rxLight, txLight [NumAppScenes][trace.NumCategories]float64
}

// NewAppBreakdown returns an empty Tables 6/7 accumulator.
func NewAppBreakdown(meta Meta, prep *Prep) *AppBreakdown {
	return &AppBreakdown{meta: meta, prep: prep}
}

// Add implements Analyzer.
func (ab *AppBreakdown) Add(s *trace.Sample) {
	if s.OS != trace.Android || len(s.Apps) == 0 {
		return
	}
	atHome := ab.prep.atHomeMemo(&ab.home, s)
	var wifiScene AppScene = NumAppScenes // sentinel: not attributable
	if ap := s.AssociatedAP(); ap != nil {
		switch ab.prep.classMemo(&ab.class, APKey{BSSID: ap.BSSID, ESSID: ap.ESSID}) {
		case APHome:
			wifiScene = AppWiFiHome
		case APPublic:
			wifiScene = AppWiFiPublic
		}
	}
	light := ab.prep.rankMemo(&ab.rank, UserDayKey{Device: s.Device, Day: ab.meta.Day(s.Time)}) == RankLight
	for _, a := range s.Apps {
		var scene AppScene
		if a.Iface == trace.Cellular {
			if atHome {
				scene = AppCellHome
			} else {
				scene = AppCellOther
			}
		} else {
			if wifiScene == NumAppScenes {
				continue // office/other WiFi is outside Tables 6/7
			}
			scene = wifiScene
		}
		ab.rx[scene][a.Category] += float64(a.RX)
		ab.tx[scene][a.Category] += float64(a.TX)
		if light {
			ab.rxLight[scene][a.Category] += float64(a.RX)
			ab.txLight[scene][a.Category] += float64(a.TX)
		}
	}
}

// NewShard implements Analyzer.
func (ab *AppBreakdown) NewShard() Analyzer { return NewAppBreakdown(ab.meta, ab.prep) }

// Merge implements Analyzer.
func (ab *AppBreakdown) Merge(shard Analyzer) {
	o := shard.(*AppBreakdown)
	for sc := AppScene(0); sc < NumAppScenes; sc++ {
		for c := 0; c < int(trace.NumCategories); c++ {
			ab.rx[sc][c] += o.rx[sc][c]
			ab.tx[sc][c] += o.tx[sc][c]
			ab.rxLight[sc][c] += o.rxLight[sc][c]
			ab.txLight[sc][c] += o.txLight[sc][c]
		}
	}
}

// CategoryShare is one ranked table entry.
type CategoryShare struct {
	Category trace.Category
	Share    float64 // fraction of the scene's volume
}

// AppBreakdownResult holds ranked category shares per scene and direction.
type AppBreakdownResult struct {
	RX      [NumAppScenes][]CategoryShare
	TX      [NumAppScenes][]CategoryShare
	RXLight [NumAppScenes][]CategoryShare
}

// Result finalizes the accumulator; each scene's shares are sorted
// descending and sum to 1.
func (ab *AppBreakdown) Result() AppBreakdownResult {
	var r AppBreakdownResult
	for sc := AppScene(0); sc < NumAppScenes; sc++ {
		r.RX[sc] = rankShares(ab.rx[sc])
		r.TX[sc] = rankShares(ab.tx[sc])
		r.RXLight[sc] = rankShares(ab.rxLight[sc])
	}
	return r
}

func rankShares(vol [trace.NumCategories]float64) []CategoryShare {
	var total float64
	for _, v := range vol {
		total += v
	}
	if total == 0 {
		return nil
	}
	out := make([]CategoryShare, 0, trace.NumCategories)
	for c, v := range vol {
		if v == 0 {
			continue
		}
		out = append(out, CategoryShare{Category: trace.Category(c), Share: v / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// ShareOf returns a category's share within a ranked list (0 when absent).
func ShareOf(shares []CategoryShare, c trace.Category) float64 {
	for _, s := range shares {
		if s.Category == c {
			return s.Share
		}
	}
	return 0
}

// RankIndex returns a category's 0-based rank within a ranked list, or -1.
func RankIndex(shares []CategoryShare, c trace.Category) int {
	for i, s := range shares {
		if s.Category == c {
			return i
		}
	}
	return -1
}
