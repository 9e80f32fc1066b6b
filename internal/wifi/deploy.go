package wifi

import (
	"fmt"
	"math/rand"

	"smartusage/internal/geo"
	"smartusage/internal/trace"
)

// DeployParams configures the per-year AP deployment. The defaults evolve
// across campaigns: public APs double between 2013 and 2015 (Table 4) and
// move aggressively to 5 GHz (§3.4.3), home channel plans disperse off
// channel 1 (§3.4.5), and downtown density intensifies (Fig. 10).
type DeployParams struct {
	// Year labels the campaign (2013..2015); informational.
	Year int
	// PublicAPs is the number of public APs to deploy.
	PublicAPs int
	// Public5GHzFrac is the fraction of public APs on 5 GHz.
	Public5GHzFrac float64
	// PublicDualBandFrac is the fraction of 5 GHz public APs that are the
	// second radio of a 2.4 GHz AP at the same site, producing the matched
	// tail behaviour of Fig. 17.
	PublicDualBandFrac float64
	// MultiESSIDFrac is the fraction of public sites announcing a second
	// provider ESSID from an adjacent BSSID (§4.3).
	MultiESSIDFrac float64
	// PublicSpreadKm is the Gaussian spread of public APs around anchors.
	PublicSpreadKm float64
	// DowntownCoreFrac places this share of public APs in a tight core
	// around the Tokyo anchor (the Shinjuku/Shibuya densities of Fig. 10).
	DowntownCoreFrac float64
	// DowntownBoost multiplies the Tokyo anchor weight, concentrating
	// public deployment downtown as in Fig. 10(b)/(d).
	DowntownBoost float64
	// HomeCh1Frac is the probability a home AP sits on the factory-default
	// channel 1; high in 2013, relaxed by 2015.
	HomeCh1Frac float64
	// Home5GHzFrac / Office5GHzFrac are the per-location 5 GHz shares for
	// newly provisioned home and office APs (both stay under 20%).
	Home5GHzFrac   float64
	Office5GHzFrac float64
}

// DeployParamsForYear returns the calibrated deployment profile of a
// campaign year, scaled to a population of scale (1.0 = the paper's ~1700
// users). publicAPs scales linearly with users because the deployment is
// *observed* through user mobility.
func DeployParamsForYear(year int, scale float64) (DeployParams, error) {
	var p DeployParams
	switch year {
	case 2013:
		p = DeployParams{
			Year: 2013, PublicAPs: 5000, Public5GHzFrac: 0.18,
			PublicDualBandFrac: 0.5, MultiESSIDFrac: 0.05,
			PublicSpreadKm: 9, DowntownBoost: 2.0, DowntownCoreFrac: 0.30,
			HomeCh1Frac: 0.30, Home5GHzFrac: 0.08, Office5GHzFrac: 0.10,
		}
	case 2014:
		p = DeployParams{
			Year: 2014, PublicAPs: 9300, Public5GHzFrac: 0.35,
			PublicDualBandFrac: 0.55, MultiESSIDFrac: 0.07,
			PublicSpreadKm: 10, DowntownBoost: 2.3, DowntownCoreFrac: 0.33,
			HomeCh1Frac: 0.22, Home5GHzFrac: 0.12, Office5GHzFrac: 0.13,
		}
	case 2015:
		p = DeployParams{
			Year: 2015, PublicAPs: 10500, Public5GHzFrac: 0.55,
			PublicDualBandFrac: 0.6, MultiESSIDFrac: 0.10,
			PublicSpreadKm: 11, DowntownBoost: 2.5, DowntownCoreFrac: 0.35,
			HomeCh1Frac: 0.10, Home5GHzFrac: 0.17, Office5GHzFrac: 0.16,
		}
	default:
		return DeployParams{}, fmt.Errorf("wifi: no deployment profile for year %d", year)
	}
	p.PublicAPs = int(float64(p.PublicAPs) * scale)
	if p.PublicAPs < 1 {
		p.PublicAPs = 1
	}
	return p, nil
}

// Deployment is the generated AP world of one campaign: the fixed public
// infrastructure plus factories for per-user home, office, and mobile APs.
// A Deployment is not safe for concurrent use: its factories share one BSSID
// counter and random source.
type Deployment struct {
	Params DeployParams

	// Public holds all deployed public APs.
	Public []AP

	byCell map[geo.Cell][]int32 // cell -> indices into Public

	rng       *rand.Rand
	nextBSSID uint64
}

// OUI prefixes (top 24 bits of the BSSID) distinguish AP classes in
// generated traces; they are arbitrary but stable.
const (
	ouiHome   = 0x001d73 << 24
	ouiPublic = 0x0024a5 << 24
	ouiOffice = 0x00300a << 24
	ouiMobile = 0x08863b << 24
)

// NewDeployment generates the public AP layout for params using rng.
func NewDeployment(params DeployParams, rng *rand.Rand) *Deployment {
	d := &Deployment{
		Params: params,
		byCell: make(map[geo.Cell][]int32),
		rng:    rng,
	}
	d.generatePublic()
	return d
}

func (d *Deployment) allocBSSID(oui uint64) trace.BSSID {
	d.nextBSSID++
	return trace.BSSID(oui | (d.nextBSSID & 0xffffff))
}

// anchorSample draws an anchor index weighted by anchor weight, with the
// Tokyo anchor boosted by DowntownBoost.
func (d *Deployment) anchorSample() geo.Anchor {
	total := 0.0
	for i, a := range geo.Anchors {
		w := a.Weight
		if i == 0 {
			w *= d.Params.DowntownBoost
		}
		total += w
	}
	r := d.rng.Float64() * total
	for i, a := range geo.Anchors {
		w := a.Weight
		if i == 0 {
			w *= d.Params.DowntownBoost
		}
		if r -= w; r < 0 {
			return a
		}
	}
	return geo.Anchors[0]
}

// jitter returns pos displaced by a 2-D Gaussian with the given spread.
func (d *Deployment) jitter(pos geo.Point, spreadKm float64) geo.Point {
	return geo.Point{
		X: pos.X + d.rng.NormFloat64()*spreadKm,
		Y: pos.Y + d.rng.NormFloat64()*spreadKm,
	}
}

func (d *Deployment) generatePublic() {
	p := d.Params
	n5 := int(float64(p.PublicAPs) * p.Public5GHzFrac)
	n24 := p.PublicAPs - n5

	addAP := func(ap AP) {
		idx := int32(len(d.Public))
		d.Public = append(d.Public, ap)
		c := ap.Cell()
		d.byCell[c] = append(d.byCell[c], idx)
	}

	essid := func() string {
		// Carrier services dominate (§1: carriers deploy free APs for
		// their customers); the first three entries take most mass.
		r := d.rng.Float64()
		switch {
		case r < 0.30:
			return PublicESSIDs[0]
		case r < 0.55:
			return PublicESSIDs[1]
		case r < 0.72:
			return PublicESSIDs[2]
		default:
			return PublicESSIDs[3+d.rng.Intn(len(PublicESSIDs)-3)]
		}
	}

	newPublic := func(band trace.Band, pos geo.Point) AP {
		ap := AP{
			BSSID:      d.allocBSSID(ouiPublic),
			ESSID:      essid(),
			Class:      ClassPublic,
			Band:       band,
			Pos:        pos,
			TxPowerDBm: 17 + d.rng.NormFloat64()*3,
		}
		// A slice of sites are badly placed (behind walls, deep indoors),
		// producing the subpar public networks of §3.4.4.
		if d.rng.Float64() < 0.20 {
			ap.TxPowerDBm -= 12
		}
		if band == trace.Band5 {
			ap.Channel = Channels5[d.rng.Intn(len(Channels5))]
		} else if d.rng.Float64() < 0.12 {
			// A minority of providers skip the engineered plan, leaving
			// residual off-plan channels in the wild (§3.4.5).
			ap.Channel = uint8(1 + d.rng.Intn(Channels24))
		} else {
			// Engineered deployments sit on 1/6/11 (§3.4.5).
			ap.Channel = NonOverlapping24[d.rng.Intn(len(NonOverlapping24))]
		}
		return ap
	}

	sitePos := func() geo.Point {
		if d.rng.Float64() < p.DowntownCoreFrac {
			return d.jitter(geo.Anchors[0].Pos, 1.5)
		}
		a := d.anchorSample()
		return d.jitter(a.Pos, p.PublicSpreadKm)
	}

	for i := 0; i < n24; i++ {
		pos := sitePos()
		ap := newPublic(trace.Band24, pos)
		addAP(ap)
		if d.rng.Float64() < p.MultiESSIDFrac {
			// A co-located radio announcing another provider's ESSID
			// from an adjacent BSSID (§4.3).
			twin := ap
			twin.BSSID = d.allocBSSID(ouiPublic)
			for {
				if e := essid(); e != ap.ESSID {
					twin.ESSID = e
					break
				}
			}
			addAP(twin)
		}
	}
	for i := 0; i < n5; i++ {
		var pos geo.Point
		if d.rng.Float64() < p.PublicDualBandFrac && len(d.Public) > 0 {
			// Second radio of an existing 2.4 GHz site.
			pos = d.Public[d.rng.Intn(len(d.Public))].Pos
		} else {
			pos = sitePos()
		}
		addAP(newPublic(trace.Band5, pos))
	}
}

// PublicNear returns the indices (into Public) of public APs whose cell is
// within radius cells of the cell containing pos. radius 0 means the exact
// cell. The slice is shared; callers must not modify it beyond iteration.
func (d *Deployment) PublicNear(pos geo.Point, radiusCells int) []int32 {
	c := geo.CellOf(pos)
	if radiusCells == 0 {
		return d.byCell[c]
	}
	var out []int32
	for dx := -radiusCells; dx <= radiusCells; dx++ {
		for dy := -radiusCells; dy <= radiusCells; dy++ {
			out = append(out, d.byCell[geo.Cell{CX: c.CX + dx, CY: c.CY + dy}]...)
		}
	}
	return out
}

// homeESSIDVendors are the consumer-router naming patterns used for
// generated home APs.
var homeESSIDVendors = []string{"aterm-%04x-g", "Buffalo-G-%04X", "WARPSTAR-%04x", "elecom-%04x", "rs500m-%04x"}

// NewHomeAP provisions a home AP at pos, picking band and channel from the
// year profile: mostly 2.4 GHz, channel 1 with probability HomeCh1Frac and
// otherwise uniform over the 13 channels (consumer gear lacks the
// engineered 1/6/11 plan, §3.4.5).
func (d *Deployment) NewHomeAP(pos geo.Point) AP {
	ap := AP{
		BSSID:      d.allocBSSID(ouiHome),
		ESSID:      fmt.Sprintf(homeESSIDVendors[d.rng.Intn(len(homeESSIDVendors))], d.rng.Intn(1<<16)),
		Class:      ClassHome,
		Pos:        pos,
		TxPowerDBm: 15 + d.rng.NormFloat64()*3,
	}
	if d.rng.Float64() < d.Params.Home5GHzFrac {
		ap.Band = trace.Band5
		ap.Channel = Channels5[d.rng.Intn(len(Channels5))]
		return ap
	}
	ap.Band = trace.Band24
	if d.rng.Float64() < d.Params.HomeCh1Frac {
		ap.Channel = 1
	} else {
		ap.Channel = uint8(1 + d.rng.Intn(Channels24))
	}
	return ap
}

// NewOfficeAP provisions an office AP at pos. Office plans are IT-managed:
// 2.4 GHz on 1/6/11, with a small 5 GHz share.
func (d *Deployment) NewOfficeAP(pos geo.Point) AP {
	ap := AP{
		BSSID:      d.allocBSSID(ouiOffice),
		ESSID:      fmt.Sprintf("corp-%04x", d.rng.Intn(1<<16)),
		Class:      ClassOffice,
		Pos:        pos,
		TxPowerDBm: 17 + d.rng.NormFloat64()*2,
	}
	if d.rng.Float64() < d.Params.Office5GHzFrac {
		ap.Band = trace.Band5
		ap.Channel = Channels5[d.rng.Intn(len(Channels5))]
	} else {
		ap.Band = trace.Band24
		ap.Channel = NonOverlapping24[d.rng.Intn(len(NonOverlapping24))]
	}
	return ap
}

// NewMobileAP provisions a personal mobile WiFi router. Mobile APs travel
// with their owner, so Pos is advisory.
func (d *Deployment) NewMobileAP() AP {
	return AP{
		BSSID:      d.allocBSSID(ouiMobile),
		ESSID:      fmt.Sprintf("wm3-%06x", d.rng.Intn(1<<24)),
		Class:      ClassMobile,
		Band:       trace.Band24,
		Channel:    uint8(1 + d.rng.Intn(Channels24)),
		TxPowerDBm: 12,
	}
}

// NewOpenAP provisions a shop/hotel open AP near pos. Its BSSID comes from
// the deployment's counter and its ESSID and channel from the deployment's
// random source, so identities depend on the order in which open APs are
// provisioned.
func (d *Deployment) NewOpenAP(pos geo.Point) AP {
	names := []string{"cafe_wifi_%03x", "hotel-guest-%03x", "shop-free-%03x"}
	return AP{
		BSSID:      d.allocBSSID(ouiOffice),
		ESSID:      fmt.Sprintf(names[d.rng.Intn(len(names))], d.rng.Intn(1<<12)),
		Class:      ClassOpen,
		Band:       trace.Band24,
		Channel:    uint8(1 + d.rng.Intn(Channels24)),
		Pos:        pos,
		TxPowerDBm: 15,
	}
}
