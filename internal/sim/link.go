package sim

import (
	"math"
	"math/rand"

	"smartusage/internal/geo"
	"smartusage/internal/mobility"
	"smartusage/internal/population"
	"smartusage/internal/trace"
	"smartusage/internal/wifi"
)

// Association stickiness: per-bin keep probabilities by AP class. Public
// sessions are short ("ninety percent of the users connect for less than
// ... 1 hour for public networks", Fig. 13); home and office sessions span
// hours and end mostly by movement.
const (
	keepHome      = 0.998
	keepHomeNight = 0.90 // idle overnight disassociations (1-6am)
	keepOffice    = 0.995
	keepPublic    = 0.82
	keepOpen      = 0.85
	keepMobile    = 0.90
)

// updateLink advances the device's WiFi association for this interval.
func (s *Simulator) updateLink(u *population.User, st *userState,
	place mobility.Place, pos geo.Point, moved bool, hour int) {

	rng := st.rng

	// Leaving a venue tears the association down.
	if st.link != nil && moved {
		st.link = nil
		st.openAP = nil
	}

	// Random session end while staying put: the device idles out of the
	// association and stays unassociated for at least one interval (an
	// instant same-interval rejoin would make sessions unobservably long).
	if st.link != nil {
		keep := keepFor(st.link.class)
		if st.link.class == wifi.ClassHome && hour >= 1 && hour < 6 {
			keep = keepHomeNight
		}
		if rng.Float64() >= keep {
			st.link = nil
		}
		return
	}

	if u.Intensity == population.CellularIntensive {
		return
	}

	switch place {
	case mobility.PlaceHome:
		if u.HasHomeAP && st.homeAssocToday {
			st.link = newLink(&u.HomeAP, wifi.ClassHome, st.homeDistM, rng)
		}
	case mobility.PlaceOffice:
		if u.Office != nil && u.Office.BYOD && st.officeAssocToday {
			st.link = newLink(&u.Office.AP, wifi.ClassOffice, st.officeDistM, rng)
		}
	case mobility.PlacePublic:
		if u.DayOff {
			return
		}
		if !s.Cfg.ForceAutoJoin && rng.Float64() >= u.PublicAssocProb {
			return
		}
		// A slice of venue associations land on the shop's own open AP
		// rather than a carrier hotspot.
		if rng.Float64() < 0.025 {
			if st.openAP == nil {
				ap := s.Deploy.NewOpenAP(pos)
				st.openAP = &ap
			}
			st.link = newLink(st.openAP, wifi.ClassOpen, 4+rng.Float64()*25, rng)
			return
		}
		s.tryPublicAssoc(u, st, pos)
	case mobility.PlaceTransit, mobility.PlaceOther:
		if u.HasMobileAP && !u.DayOff && rng.Float64() < 0.30 {
			st.link = newLink(&u.MobileAP, wifi.ClassMobile, 1, rng)
		}
	}
}

// newLink opens an association session, fixing distance and shadowing for
// its lifetime.
func newLink(ap *wifi.AP, class wifi.Class, distM float64, rng *rand.Rand) *link {
	return &link{
		ap:      ap,
		class:   class,
		distM:   distM,
		rssiDBm: pathLossFor(ap).RSSI(ap.TxPowerDBm, distM, rng),
	}
}

func keepFor(c wifi.Class) float64 {
	switch c {
	case wifi.ClassHome:
		return keepHome
	case wifi.ClassOffice:
		return keepOffice
	case wifi.ClassPublic:
		return keepPublic
	case wifi.ClassOpen:
		return keepOpen
	case wifi.ClassMobile:
		return keepMobile
	}
	return keepPublic
}

// tryPublicAssoc attempts to join a nearby public AP: the device picks a
// candidate in radio range and associates when the signal clears the
// join threshold. 5 GHz candidates require a 5 GHz-capable device.
func (s *Simulator) tryPublicAssoc(u *population.User, st *userState, pos geo.Point) {
	rng := st.rng
	cands := s.Deploy.PublicNear(pos, 0)
	if len(cands) == 0 {
		return
	}
	// Examine up to three candidates, associate with the strongest
	// acceptable one.
	const tries = 2
	var best *wifi.AP
	var bestDist, bestRSSI float64
	bestRSSI = -200
	for t := 0; t < tries; t++ {
		ap := &s.Deploy.Public[cands[rng.Intn(len(cands))]]
		if ap.Band == trace.Band5 && !u.Supports5GHz {
			continue
		}
		dist := 5 + rng.Float64()*60
		rssi := pathLossFor(ap).RSSI(ap.TxPowerDBm, dist, rng)
		if rssi > bestRSSI {
			best, bestDist, bestRSSI = ap, dist, rssi
		}
	}
	// Devices refuse marginal networks: the join threshold sits slightly
	// below the -70 dBm quality bar, letting a tail of subpar
	// associations through (12% of public networks, §3.4.4).
	if best == nil || bestRSSI < -78 {
		return
	}
	st.link = &link{ap: best, class: wifi.ClassPublic, distM: bestDist, rssiDBm: bestRSSI}
}

func pathLossFor(ap *wifi.AP) wifi.PathLoss {
	if ap.Band == trace.Band5 {
		return wifi.PathLoss5GHz
	}
	return wifi.DefaultPathLoss
}

// poisson draws a Poisson variate; it uses Knuth's product method for small
// lambda and a clamped normal approximation beyond.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(lambda + rng.NormFloat64()*math.Sqrt(lambda) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
