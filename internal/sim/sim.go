// Package sim runs one measurement campaign: it deploys the WiFi world,
// synthesizes the user panel, and walks every user through every 10-minute
// interval of the campaign, emitting the trace.Samples the on-device
// measurement software would have reported. The generated dataset is the
// substitute substrate for the paper's proprietary human-subjects data; its
// structure is calibrated against every published marginal (see DESIGN.md).
//
// The simulation is deterministic for a given configuration: a master seed
// drives world generation, and each user owns an independent generator
// derived from the seed and the device ID. The one state users share is the
// deployment, which provisions the shop APs they open; Run walks users one at
// a time in panel order, so one seed yields one trace.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"smartusage/internal/apps"
	"smartusage/internal/cellular"
	"smartusage/internal/config"
	"smartusage/internal/geo"
	"smartusage/internal/mobility"
	"smartusage/internal/population"
	"smartusage/internal/trace"
	"smartusage/internal/wifi"
)

// Sink receives generated samples in per-device chronological order. The
// sample is reused between calls; implementations must copy anything they
// retain.
type Sink func(*trace.Sample) error

// Simulator holds the generated world of one campaign.
type Simulator struct {
	Cfg    config.Campaign
	Deploy *wifi.Deployment
	Panel  *population.Panel
}

// New generates the world (AP deployment and user panel) for cfg.
func New(cfg config.Campaign) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := wifi.NewDeployment(cfg.Deploy, rng)
	panel, err := population.NewPanel(cfg.Population, dep, rng)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Simulator{Cfg: cfg, Deploy: dep, Panel: panel}, nil
}

// Run simulates every user over the full campaign, delivering samples to
// sink on the calling goroutine. Samples of one device arrive in time order;
// devices are emitted one after another, in panel order.
func (s *Simulator) Run(sink Sink) error {
	for i := range s.Panel.Users {
		if err := s.runUser(&s.Panel.Users[i], sink); err != nil {
			return fmt.Errorf("sim: user %s: %w", s.Panel.Users[i].ID, err)
		}
	}
	return nil
}

// splitmix64 decorrelates per-user seeds from sequential device IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// link is the device's current WiFi association. Signal strength is drawn
// once per session (distance and shadowing are stable while the user stays
// put), so per-AP maximum RSSI statistics reflect placement, not sampling
// noise.
type link struct {
	ap      *wifi.AP
	class   wifi.Class
	distM   float64 // local distance to the AP in metres
	rssiDBm float64 // session RSSI at that distance
}

// userState carries per-user simulation state across days.
type userState struct {
	rng     *rand.Rand
	cap     *cellular.CapTracker
	link    *link
	lastPos geo.Point
	battery float64

	// Habitual placement: where the phone usually sits relative to the
	// home/office AP. Stable per user so per-AP maximum RSSI reflects the
	// dwelling, not per-interval luck.
	homeDistM   float64
	officeDistM float64
	// homeAssocBias shifts this user's daily home-association probability.
	homeAssocBias float64
	// capCareless marks users who ignore the approaching bandwidth cap.
	capCareless bool

	// iOS update state (2015).
	updatePending bool
	updateIntent  time.Time
	updateDone    bool

	// Per-day association intents: whether the user bothers connecting to
	// the home / office network today. Day-level (rather than bin-level)
	// sampling reproduces the paper's observation that "one user may be a
	// light user one day and heavy hitter on another" for WiFi usage too.
	homeAssocToday   bool
	officeAssocToday bool

	// openAP is the ephemeral shop/hotel AP of the current outing.
	openAP *wifi.AP

	// tethering window for the current day, in bins ([0,0) = none).
	tetherFrom, tetherTo int

	// dayBoost is today's WiFi demand multiplier: most days WiFi carries
	// demand at parity; binge days (video evenings, sync sessions)
	// concentrate the offload volume, leaving ordinary commuter days
	// below the Fig. 5 diagonal.
	dayBoost float64
	// dayAffinity is the user's category affinity adjusted for today's
	// demand level (light days carry little video, §3.6).
	dayAffinity apps.Affinity

	// sched is today's schedule, refilled at every day start.
	sched mobility.Schedule
	// weights caches each scene's mix weighed by dayAffinity; bit s of
	// weighed marks scene s as weighed today. The cache is invalidated
	// whenever dayAffinity changes.
	weights [apps.NumScenes]apps.Weights
	weighed uint8
	// allocs is the scratch the current interval's allocation lands in.
	allocs []apps.Allocation
}

func (s *Simulator) runUser(u *population.User, sink Sink) error {
	st := &userState{
		rng:     rand.New(rand.NewSource(int64(splitmix64(uint64(u.ID) ^ uint64(s.Cfg.Seed))))),
		cap:     cellular.NewCapTracker(s.Cfg.Cap),
		battery: 80,
	}
	// Log-uniform habitual distances: homes span 5-45 m, offices 5-45 m.
	st.homeDistM = 5 * math.Pow(45.0/5.0, st.rng.Float64())
	st.officeDistM = 5 * math.Pow(45.0/5.0, st.rng.Float64())
	// Stable per-user attitude toward connecting at home: some AP owners
	// rarely bother, putting them below the WiFi=cellular diagonal of
	// Fig. 5 despite owning a network.
	st.homeAssocBias = st.rng.NormFloat64() * 0.25
	if u.OS == trace.IOS {
		// iOS auto-joins known networks more aggressively, driving its
		// ~30% higher WiFi-user ratio (§3.3.4).
		st.homeAssocBias += 0.08
	} else {
		st.homeAssocBias -= 0.03
	}
	// Most subscribers discipline their cellular use well before the soft
	// cap; a careless minority blows through it (§3.8).
	st.capCareless = st.rng.Float64() < 0.12
	s.planUpdate(u, st)

	// Panel churn (§2): late joiners and dropouts report only a slice of
	// the campaign; occasional day-level outages leave reporting gaps.
	joinDay, leaveDay := 0, s.Cfg.Days
	pp := s.Cfg.Population
	if pp.LateJoinFrac > 0 && st.rng.Float64() < pp.LateJoinFrac {
		joinDay = 1 + st.rng.Intn(s.Cfg.Days/2+1)
	}
	if pp.DropoutFrac > 0 && st.rng.Float64() < pp.DropoutFrac {
		leaveDay = s.Cfg.Days - st.rng.Intn(s.Cfg.Days/2+1)
	}

	var sample trace.Sample
	for d := 0; d < s.Cfg.Days; d++ {
		dayStart := s.Cfg.DayStart(d)
		weekday := dayStart.Weekday() >= time.Monday && dayStart.Weekday() <= time.Friday
		st.cap.StartDay()
		// Heavy consumers make sure their WiFi works; casual users skip
		// days ("users properly select network interfaces", §3.3).
		pHome := clamp01(s.Cfg.HomeAssocProb + 0.25*(u.Heavyness-0.5) + st.homeAssocBias)
		st.homeAssocToday = st.rng.Float64() < pHome
		st.officeAssocToday = st.rng.Float64() < s.Cfg.OfficeAssocProb
		b := s.Cfg.WiFiDemandBoost - 1
		if st.rng.Float64() < 0.45 {
			st.dayBoost = 1 + b*1.7*(0.3+1.4*u.Heavyness)
		} else {
			st.dayBoost = 1 + b*0.5
		}
		st.sched.Fill(u, weekday, st.rng)

		// Daily demand: campaign median x user scale x day volatility.
		demand := s.Cfg.DemandMedianMB * 1e6 * u.VolumeScale *
			math.Exp(s.Cfg.DaySigma*st.rng.NormFloat64())
		st.dayAffinity = u.Affinity.DayAdjusted(demand / (s.Cfg.DemandMedianMB * 1e6))
		st.weighed = 0

		st.tetherFrom, st.tetherTo = 0, 0
		if u.TetherProne && st.rng.Float64() < 0.08 {
			st.tetherFrom = 54 + st.rng.Intn(72) // 09:00-21:00
			st.tetherTo = st.tetherFrom + 3 + st.rng.Intn(12)
		}

		if d < joinDay || d >= leaveDay {
			st.link = nil // device not reporting: no association carries over
			continue
		}
		outFrom, outTo := -1, -1
		if pp.OutageProbPerDay > 0 && st.rng.Float64() < pp.OutageProbPerDay {
			outFrom = st.rng.Intn(mobility.BinsPerDay)
			outTo = outFrom + 6 + st.rng.Intn(30) // 1-6 h dark
		}

		for bin := 0; bin < mobility.BinsPerDay; bin++ {
			if bin >= outFrom && bin < outTo {
				st.link = nil
				continue
			}
			s.stepBin(u, st, dayStart, bin, demand, &sample)
			if err := sink(&sample); err != nil {
				return err
			}
		}
	}
	return nil
}

// planUpdate samples whether and when this device intends to install the
// iOS update (§3.7).
func (s *Simulator) planUpdate(u *population.User, st *userState) {
	ev := s.Cfg.Update
	if ev == nil || u.OS != trace.IOS {
		return
	}
	adopt := ev.AdoptProbNoHomeAP
	if u.HasHomeAP {
		adopt = ev.AdoptProbHomeAP
	}
	if st.rng.Float64() >= adopt {
		return
	}
	st.updatePending = true
	// Weekend hump: a slice of updaters defer to the first weekend after
	// release; the rest follow a Gamma(2)-shaped ramp (few on day one,
	// half within four days, §3.7). Users without home WiFi procrastinate:
	// updating means seeking out a hotspot.
	if st.rng.Float64() < 0.18 {
		wk := ev.Release
		for wk.Weekday() != time.Saturday {
			wk = wk.AddDate(0, 0, 1)
		}
		st.updateIntent = wk.Add(time.Duration(st.rng.Intn(2*24*3600)) * time.Second)
		return
	}
	theta := ev.MeanDelayDays / 2
	if !u.HasHomeAP {
		theta *= 2
	}
	delayDays := (st.rng.ExpFloat64() + st.rng.ExpFloat64()) * theta
	st.updateIntent = ev.Release.Add(time.Duration(delayDays * 24 * float64(time.Hour)))
}

// stepBin simulates one 10-minute interval into out.
func (s *Simulator) stepBin(u *population.User, st *userState,
	dayStart time.Time, bin int, dailyDemand float64, out *trace.Sample) {

	rng := st.rng
	sched := &st.sched
	place := sched.Place[bin]
	pos := sched.Pos[bin]
	hour := bin / 6
	now := dayStart.Add(time.Duration(bin) * mobility.BinSeconds * time.Second)

	// --- WiFi association state machine -------------------------------
	moved := pos != st.lastPos
	st.lastPos = pos
	s.updateLink(u, st, place, pos, moved, hour)

	wifiState := trace.WiFiOff
	switch {
	case st.link != nil:
		wifiState = trace.WiFiAssociated
	case u.Intensity == population.CellularIntensive:
		wifiState = trace.WiFiOff
	case place == mobility.PlaceHome:
		// At home the interface stays on for everyone who ever uses
		// WiFi; users without an AP who turn WiFi off by day leave it
		// off at home too when they never configured a network.
		if u.HasHomeAP || !u.DayOff {
			wifiState = trace.WiFiOn
		}
	default:
		if !u.DayOff {
			wifiState = trace.WiFiOn
		}
	}

	// --- traffic -------------------------------------------------------
	rxDemand := dailyDemand * sched.Activity[bin]
	var cellRX, cellTX, wifiRX, wifiTX uint64
	var allocs []apps.Allocation
	scene := apps.SceneCellOther

	if st.link != nil {
		// Free, fast networks invite consumption, and disproportionately
		// so for heavy hitters, who offload most of their volume (§3.3.3).
		rxDemand *= st.dayBoost
		rx := uint64(rxDemand) + backgroundBytes(rng)
		switch st.link.class {
		case wifi.ClassHome:
			scene = apps.SceneWiFiHome
		case wifi.ClassPublic:
			scene = apps.SceneWiFiPublic
		default:
			scene = apps.SceneWiFiOther
		}
		allocs = s.allocate(st, scene, rx, rng)
		wifiRX = rx
		wifiTX = sumTX(allocs)
		// Carrier chatter (push, MMS, telephony services) keeps the
		// cellular counters warm on some intervals even while offloaded.
		if u.Intensity != population.WiFiIntensive && rng.Float64() < 0.12 {
			cellRX = st.cap.Admit(backgroundBytes(rng), hour, mobility.BinSeconds)
			cellTX = cellRX / 4
		}
	} else if u.Intensity == population.WiFiIntensive {
		// WiFi-intensive users defer demand rather than pay cellular
		// fees; their cellular interface often moves no bytes all day
		// (the 8% silent cellular interfaces of §3.2).
		cellRX, cellTX = 0, 0
	} else {
		// Approaching the soft cap, users curb their own cellular use:
		// nearly all users respect the cap ("only 1.4% of users
		// exceeding", §3.2). When carriers relax enforcement (2015,
		// §3.8), users worry less and curb less — which is what narrows
		// the Fig. 19 gap.
		if st.cap.Trailing()+st.cap.Today() > s.Cfg.Cap.ThresholdBytes*6/10 {
			relax := 1 - s.Cfg.Cap.Enforcement
			if st.capCareless {
				rxDemand *= 0.55 + 0.30*relax
			} else {
				rxDemand *= 0.12 + 0.25*relax
			}
		}
		want := uint64(rxDemand) + backgroundBytes(rng)
		admitted := st.cap.Admit(want, hour, mobility.BinSeconds)
		if place == mobility.PlaceHome {
			scene = apps.SceneCellHome
		} else {
			scene = apps.SceneCellOther
		}
		allocs = s.allocate(st, scene, admitted, rng)
		cellRX = admitted
		cellTX = sumTX(allocs)
	}

	// Tethering burst: large cellular volume flagged for cleaning (§2).
	tethered := bin >= st.tetherFrom && bin < st.tetherTo
	if tethered {
		burst := uint64(20e6 + rng.Float64()*80e6)
		cellRX += st.cap.Admit(burst, hour, mobility.BinSeconds)
		cellTX += burst / 20
	}

	// iOS update download: executes at the first WiFi interval past the
	// intent time (§3.7: updates require WiFi).
	if st.updatePending && !st.updateDone && st.link != nil && now.After(st.updateIntent) {
		wifiRX += s.Cfg.Update.SizeBytes
		wifiTX += s.Cfg.Update.SizeBytes / 100
		st.updateDone = true
	}

	// --- battery -------------------------------------------------------
	drain := 0.15 + rxDemand/40e6
	if place == mobility.PlaceHome && (hour >= 22 || hour < 7) {
		st.battery += 1.2 // overnight charging
	} else {
		st.battery -= drain
	}
	if st.battery > 100 {
		st.battery = 100
	}
	if st.battery < 3 {
		st.battery = 3
	}

	// --- emit ------------------------------------------------------------
	cell := geo.CellOf(pos).Clamp()
	*out = trace.Sample{
		Device:    u.ID,
		OS:        u.OS,
		Time:      now.Unix(),
		GeoCX:     int16(cell.CX),
		GeoCY:     int16(cell.CY),
		WiFiState: wifiState,
		RAT:       s.Cfg.RAT.RATFor(u.LTECapable, rng),
		Carrier:   uint8(u.Carrier),
		CellRX:    cellRX,
		CellTX:    cellTX,
		WiFiRX:    wifiRX,
		WiFiTX:    wifiTX,
		Apps:      out.Apps[:0],
		APs:       out.APs[:0],
		Battery:   uint8(st.battery),
		Tethered:  tethered,
	}
	if u.OS == trace.Android {
		for _, a := range allocs {
			ifc := trace.Cellular
			if st.link != nil {
				ifc = trace.WiFi
			}
			out.Apps = append(out.Apps, trace.AppTraffic{
				Category: a.Category, Iface: ifc, RX: a.RX, TX: a.TX,
			})
		}
	}
	s.observeAPs(u, st, place, pos, wifiState, out)
}

// allocate splits rx bytes over app categories for the scene, honouring the
// user's day-adjusted affinities. The result is st.allocs, valid until the
// next call. The scene's mix is looked up and weighed on its first use of
// the day only; the lookup cannot fail for configured years.
func (s *Simulator) allocate(st *userState, scene apps.Scene, rx uint64, rng *rand.Rand) []apps.Allocation {
	w := &st.weights[scene]
	if st.weighed&(1<<scene) == 0 {
		mix, err := apps.MixFor(s.Cfg.Year, scene)
		if err != nil {
			panic(err) // configuration invariant: years 2013-2015 only
		}
		*w = mix.Weigh(&st.dayAffinity)
		st.weighed |= 1 << scene
	}
	st.allocs = w.Allocate(st.allocs[:0], rx, rng)
	return st.allocs
}

func sumTX(allocs []apps.Allocation) uint64 {
	var tx uint64
	for _, a := range allocs {
		tx += a.TX
	}
	return tx
}

// backgroundBytes is keepalive/push chatter present on the active interface
// even without foreground use.
func backgroundBytes(rng *rand.Rand) uint64 {
	return uint64(2e3 + rng.Float64()*25e3)
}

func clamp01(x float64) float64 {
	if x < 0.02 {
		return 0.02
	}
	if x > 0.98 {
		return 0.98
	}
	return x
}
