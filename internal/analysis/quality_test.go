package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"smartusage/internal/stats"
	"smartusage/internal/trace"
	"smartusage/internal/wifi"
)

// availOracle is Fig. 17 computed the direct way, as the test oracle for
// PublicAvailability's count histograms: one float64 per available interval
// for each band and strength, stats.CCDF over them, and the threshold
// shares by loop.
type availOracle struct {
	prep                               *Prep
	n24All, n24Strong, n5All, n5Strong []float64
	devs                               map[trace.DeviceID]*availDevice
}

func newAvailOracle(prep *Prep) *availOracle {
	return &availOracle{prep: prep, devs: make(map[trace.DeviceID]*availDevice)}
}

func (o *availOracle) Add(s *trace.Sample) {
	if s.OS != trace.Android {
		return
	}
	dev := o.devs[s.Device]
	if dev == nil {
		dev = &availDevice{id: s.Device}
		o.devs[s.Device] = dev
	}
	dev.cellTotal += s.CellRX
	if s.WiFiState != trace.WiFiOn {
		return
	}
	dev.availBins++
	var c24, c24s, c5, c5s int
	for _, obs := range s.APs {
		if o.prep.ClassOf(APKey{BSSID: obs.BSSID, ESSID: obs.ESSID}) != APPublic {
			continue
		}
		strong := float64(obs.RSSI) >= wifi.StrongRSSI
		if obs.Band == trace.Band5 {
			c5++
			if strong {
				c5s++
			}
		} else {
			c24++
			if strong {
				c24s++
			}
		}
	}
	o.n24All = append(o.n24All, float64(c24))
	o.n24Strong = append(o.n24Strong, float64(c24s))
	o.n5All = append(o.n5All, float64(c5))
	o.n5Strong = append(o.n5Strong, float64(c5s))
	dev.any5 = dev.any5 || c5 > 0
	dev.strong5 = dev.strong5 || c5s > 0
	if c24s+c5s > 0 {
		dev.offloadable += s.CellRX
		dev.strongBins++
	}
}

func (o *availOracle) NewShard() Analyzer { return newAvailOracle(o.prep) }

func (o *availOracle) Merge(shard Analyzer) {
	sh := shard.(*availOracle)
	o.n24All = append(o.n24All, sh.n24All...)
	o.n24Strong = append(o.n24Strong, sh.n24Strong...)
	o.n5All = append(o.n5All, sh.n5All...)
	o.n5Strong = append(o.n5Strong, sh.n5Strong...)
	for id, dev := range sh.devs {
		o.devs[id] = dev
	}
}

func (o *availOracle) result() PublicAvailabilityResult {
	r := PublicAvailabilityResult{
		CCDF24All:    stats.CCDF(o.n24All),
		CCDF24Strong: stats.CCDF(o.n24Strong),
		CCDF5All:     stats.CCDF(o.n5All),
		CCDF5Strong:  stats.CCDF(o.n5Strong),
	}
	if n := len(o.n24All); n > 0 {
		var u10, any5, strong5 int
		for i := range o.n24All {
			if o.n24All[i] < 10 {
				u10++
			}
			if o.n5All[i] > 0 {
				any5++
			}
			if o.n5Strong[i] > 0 {
				strong5++
			}
		}
		r.Frac24Under10 = float64(u10) / float64(n)
		r.Frac5Any = float64(any5) / float64(n)
		r.Frac5Strong = float64(strong5) / float64(n)
	}
	var off, tot uint64
	var devices, withStrong, with5, with5s int
	for _, dev := range o.devs {
		if dev.availBins < minAvailBins {
			continue
		}
		devices++
		off += dev.offloadable
		tot += dev.cellTotal
		if dev.strongBins > 0 {
			withStrong++
		}
		if dev.any5 {
			with5++
		}
		if dev.strong5 {
			with5s++
		}
	}
	if tot > 0 {
		r.OffloadableFrac = float64(off) / float64(tot)
	}
	if devices > 0 {
		r.StrongOpportunityFrac = float64(withStrong) / float64(devices)
		r.Dev5AnyFrac = float64(with5) / float64(devices)
		r.Dev5StrongFrac = float64(with5s) / float64(devices)
	}
	return r
}

// crowdedAPs is the number of public APs per band in crowdedInterval:
// past availBins, so every histogram grows.
const crowdedAPs = 70

// crowdedInterval is one Android device's WiFi-available interval that
// sees crowdedAPs strong public APs in each band.
func crowdedInterval(meta Meta) trace.Sample {
	s := trace.Sample{
		Device:    trace.DeviceID(99_999),
		OS:        trace.Android,
		Time:      meta.Start.Unix() + 12*3600,
		WiFiState: trace.WiFiOn,
		CellRX:    1000,
	}
	for i := 0; i < crowdedAPs; i++ {
		for _, band := range []trace.Band{trace.Band24, trace.Band5} {
			s.APs = append(s.APs, trace.APObs{
				BSSID: trace.BSSID(0x70000 + 2*i + int(band)), ESSID: "0000docomo",
				RSSI: -50, Channel: 1, Band: band,
			})
		}
	}
	return s
}

// TestPublicAvailabilityMatchesOracle pins Fig. 17 from count histograms
// to the direct computation, DeepEqual: over the equivalence fixture, and
// with an interval that grows every histogram past availBins; at every
// worker count in either input form, and under random device splits merged
// in random orders.
func TestPublicAvailabilityMatchesOracle(t *testing.T) {
	meta, fixture, release := equivalenceFixture(t)
	crowded := append(fixture[:len(fixture):len(fixture)], crowdedInterval(meta))
	for name, samples := range map[string][]trace.Sample{"fixture": fixture, "crowded": crowded} {
		src := SliceSource(samples)
		prep, err := inlinePrep(meta, src, release)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newAvailOracle(prep)
		if err := inlineRun(src, prep, []Analyzer{oracle}, nil); err != nil {
			t.Fatal(err)
		}
		want := oracle.result()
		pts := want.CCDF5Strong.Points
		if len(pts) < 2 {
			t.Fatalf("%s: oracle CCDF too thin: %+v", name, pts)
		}
		if name == "crowded" && pts[len(pts)-1].X != crowdedAPs {
			t.Fatalf("crowded: oracle's largest 5 GHz strong count %g, want %d", pts[len(pts)-1].X, crowdedAPs)
		}

		for _, workers := range workerCounts() {
			for _, in := range inputForms(t, src, workers) {
				pa := NewPublicAvailability(prep)
				if err := Run(in, prep, []Analyzer{pa}, nil); err != nil {
					t.Fatal(err)
				}
				if got := pa.Result(); !reflect.DeepEqual(want, got) {
					t.Errorf("%s: Run(%T, workers=%d) differs from the oracle:\n got %+v\nwant %+v", name, in, workers, got, want)
				}
			}
		}

		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for _, shards := range []int{2, 3, 5, 8} {
				parts := make([]*PublicAvailability, shards)
				for i := range parts {
					parts[i] = NewPublicAvailability(prep)
				}
				assign := make(map[trace.DeviceID]int)
				var upd updateMemo
				for i := range samples {
					s := &samples[i]
					w, ok := assign[s.Device]
					if !ok {
						w = rng.Intn(shards)
						assign[s.Device] = w
					}
					dispatch(s, prep, []Analyzer{parts[w]}, nil, &upd)
				}
				order := rng.Perm(shards)
				acc := parts[order[0]]
				for _, i := range order[1:] {
					acc.Merge(parts[i])
				}
				if got := acc.Result(); !reflect.DeepEqual(want, got) {
					t.Errorf("%s: seed %d, %d shards merged in order %v: differs from the oracle", name, seed, shards, order)
				}
			}
		}
	}
}
