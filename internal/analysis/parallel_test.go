package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"smartusage/internal/trace"
)

// genEquivalenceSamples synthesizes a campaign rich enough to light up every
// analyzer code path: home/public/office/other APs shared across devices,
// both bands, scans with several APs, app traffic, tethering, all WiFi
// states, three carriers, both OSes, and an iOS update flash crowd. The
// stream is deterministic (fixed rng seed) and user-major like the
// simulator's.
func genEquivalenceSamples(meta Meta) []trace.Sample {
	rng := rand.New(rand.NewSource(4242))
	at := func(day, hour, min int) int64 {
		return meta.Start.AddDate(0, 0, day).
			Add(time.Duration(hour)*time.Hour + time.Duration(min)*time.Minute).Unix()
	}
	var out []trace.Sample
	const nDev = 40
	for d := 0; d < nDev; d++ {
		dev := trace.DeviceID(100 + d*131) // scattered IDs so hashing mixes shards
		osv := trace.Android
		if d%3 == 0 {
			osv = trace.IOS
		}
		carrier := uint8(d % 3)
		cx, cy := int16(5+d%7), int16(5+d%5)
		homeAP := trace.APObs{
			BSSID: trace.BSSID(0x10000 + d), ESSID: fmt.Sprintf("aterm-%02d", d),
			RSSI: -48, Channel: uint8(1 + d%13), Band: trace.Band24, Associated: true,
		}
		officeAP := trace.APObs{
			BSSID: trace.BSSID(0x20000 + d/4), ESSID: fmt.Sprintf("corp-%d", d/4),
			RSSI: -55, Channel: 6, Band: trace.Band24, Associated: true,
		}
		// Shared public infrastructure: several devices see the same pairs.
		publicAP := func(i int, band trace.Band, assoc bool, rssi int8) trace.APObs {
			return trace.APObs{
				BSSID: trace.BSSID(0x5000 + i), ESSID: "0000docomo",
				RSSI: rssi, Channel: uint8(1 + (i*5)%13), Band: band, Associated: assoc,
			}
		}
		emit := func(day, hour, min int, s trace.Sample) {
			s.Device, s.OS, s.Carrier = dev, osv, carrier
			s.Time = at(day, hour, min)
			s.GeoCX, s.GeoCY = cx, cy
			s.Battery = uint8(15 + (day*24+hour)%80)
			out = append(out, s)
		}
		for day := 0; day < meta.Days; day++ {
			// Night window: home association for most devices (infers homes).
			if d%5 != 0 {
				for _, h := range []int{0, 1, 2, 3, 4, 5, 22, 23} {
					for m := 0; m < 60; m += 10 {
						emit(day, h, m, trace.Sample{
							WiFiState: trace.WiFiAssociated,
							WiFiRX:    uint64(rng.Intn(50_000)),
							APs:       []trace.APObs{homeAP},
						})
					}
				}
			}
			// Weekday business hours: office association for half the panel.
			if wd := meta.Weekday(at(day, 12, 0)); wd && d%2 == 0 {
				for h := 10; h < 17; h++ {
					emit(day, h, 0, trace.Sample{
						WiFiState: trace.WiFiAssociated,
						WiFiRX:    uint64(rng.Intn(200_000)),
						WiFiTX:    uint64(rng.Intn(20_000)),
						APs:       []trace.APObs{officeAP},
					})
				}
			}
			// Daytime mixture.
			for h := 8; h < 22; h++ {
				switch (d + day + h) % 5 {
				case 0: // cellular on LTE or 3G, with app traffic on Android
					s := trace.Sample{
						WiFiState: trace.WiFiOff,
						RAT:       trace.RATLTE,
						CellRX:    uint64(rng.Intn(2_000_000)),
						CellTX:    uint64(rng.Intn(200_000)),
					}
					if h%2 == 0 {
						s.RAT = trace.RAT3G
					}
					if osv == trace.Android {
						s.Apps = []trace.AppTraffic{
							{Category: trace.Category(h % int(trace.NumCategories)), Iface: trace.Cellular, RX: s.CellRX / 2, TX: s.CellTX / 2},
						}
					}
					emit(day, h, 10, s)
				case 1: // WiFi-available interval scanning public APs
					n := 1 + (d+h)%4
					aps := make([]trace.APObs, 0, n)
					for i := 0; i < n; i++ {
						band := trace.Band24
						if (d+i)%3 == 0 {
							band = trace.Band5
						}
						rssi := int8(-60 - 5*i)
						aps = append(aps, publicAP((d+i)%8, band, false, rssi))
					}
					emit(day, h, 20, trace.Sample{
						WiFiState: trace.WiFiOn,
						CellRX:    uint64(rng.Intn(500_000)),
						APs:       aps,
					})
				case 2: // public association with WiFi app traffic
					s := trace.Sample{
						WiFiState: trace.WiFiAssociated,
						WiFiRX:    uint64(rng.Intn(3_000_000)),
						WiFiTX:    uint64(rng.Intn(300_000)),
						APs:       []trace.APObs{publicAP(d%8, trace.Band24, true, -58)},
					}
					if osv == trace.Android {
						s.Apps = []trace.AppTraffic{
							{Category: trace.Category((h + 1) % int(trace.NumCategories)), Iface: trace.WiFi, RX: s.WiFiRX / 3},
						}
					}
					emit(day, h, 30, s)
				case 3: // tethered interval (must be cleaned away)
					emit(day, h, 40, trace.Sample{
						WiFiState: trace.WiFiOff,
						Tethered:  true,
						CellRX:    uint64(rng.Intn(10_000_000)),
					})
				default: // idle report
					emit(day, h, 50, trace.Sample{WiFiState: trace.WiFiOn})
				}
			}
			// iOS update spike on day 3 for a third of the iOS devices.
			if osv == trace.IOS && d%6 == 0 && day == 3 {
				emit(day, 20, 0, trace.Sample{
					WiFiState: trace.WiFiAssociated,
					WiFiRX:    565 << 20,
					APs:       []trace.APObs{publicAP(d%8, trace.Band24, true, -52)},
				})
			}
		}
		// The emit calls above interleave night/office/day blocks; real
		// traces are time-ordered per device, and AssocDuration's run
		// tracking assumes it.
		block := out[len(out)-countFor(dev, out):]
		sort.Slice(block, func(i, j int) bool { return block[i].Time < block[j].Time })
	}
	return out
}

// countFor returns how many trailing samples of out belong to dev.
func countFor(dev trace.DeviceID, out []trace.Sample) int {
	n := 0
	for i := len(out) - 1; i >= 0 && out[i].Device == dev; i-- {
		n++
	}
	return n
}

func equivalenceFixture(t *testing.T) (Meta, []trace.Sample, *time.Time) {
	t.Helper()
	meta := testMeta(7)
	release := meta.Start.AddDate(0, 0, 2)
	return meta, genEquivalenceSamples(meta), &release
}

func workerCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	return counts
}

// partition decodes src once into an n-way in-memory device partition.
func partition(t testing.TB, src Source, n int) *Shards {
	t.Helper()
	sh := NewShards(n)
	if err := src(sh.Add); err != nil {
		t.Fatal(err)
	}
	return sh
}

// inputForms returns src as both forms of pass input at n workers: streamed,
// and decoded once into an n-way in-memory partition.
func inputForms(t testing.TB, src Source, n int) []Input {
	return []Input{Stream(src, n), partition(t, src, n)}
}

// inlinePrep and inlineRun are the equivalence oracles: each pass applied
// sample by sample on the calling goroutine, with no fan-out, no batch copy
// and no shards.
func inlinePrep(meta Meta, src Source, release *time.Time) (*Prep, error) {
	ps := newPrepShard(meta, release)
	if err := src(ps.add); err != nil {
		return nil, err
	}
	return finishPrep(meta, []*prepShard{ps}), nil
}

func inlineRun(src Source, prep *Prep, cleaned, raw []Analyzer) error {
	var upd updateMemo
	return src(func(s *trace.Sample) error {
		dispatch(s, prep, cleaned, raw, &upd)
		return nil
	})
}

func TestBuildPrepParallelEquivalence(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	want, err := inlinePrep(meta, src, release)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Devices) == 0 || len(want.APs) == 0 || len(want.UpdateDay) == 0 {
		t.Fatalf("fixture too thin: %d devices, %d APs, %d updates",
			len(want.Devices), len(want.APs), len(want.UpdateDay))
	}
	for _, workers := range workerCounts() {
		for _, in := range inputForms(t, src, workers) {
			got, err := BuildPrep(meta, in, release)
			if err != nil {
				t.Fatalf("%T, workers=%d: %v", in, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("BuildPrep(%T, workers=%d) differs from the inline oracle", in, workers)
			}
		}
	}
}

// batteryResults runs a freshly constructed full analyzer battery through
// run and returns every analyzer's finalized result, keyed by name.
func batteryResults(t *testing.T, meta Meta, prep *Prep, release *time.Time, run func(cleaned, raw []Analyzer) error) map[string]any {
	t.Helper()
	agg := NewAggregate(meta)
	ratios := NewWiFiRatios(meta, prep)
	ifstate := NewInterfaceState(meta)
	location := NewLocationTraffic(meta, prep)
	apsPerDay := NewAPsPerDay(meta, prep)
	durations := NewAssocDuration(meta, prep, false)
	publicAvail := NewPublicAvailability(prep)
	appBreak := NewAppBreakdown(meta, prep)
	battery := NewBattery(meta)
	carriers := NewCarrierRatios()
	update := NewUpdateTiming(meta, prep, *release)
	cleaned := []Analyzer{agg, ratios, ifstate, location, apsPerDay, durations, publicAvail, appBreak, battery, carriers}
	raw := []Analyzer{update}
	if err := run(cleaned, raw); err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"aggregate":   agg.Result(),
		"ratios":      ratios.Result(),
		"ifstate":     ifstate.Result(),
		"location":    location.Result(),
		"apsPerDay":   apsPerDay.Result(),
		"durations":   durations.Result(),
		"publicAvail": publicAvail.Result(),
		"appBreak":    appBreak.Result(),
		"battery":     battery.Result(),
		"carriers":    carriers.Result(),
		"update":      update.Result(),
	}
}

func TestRunParallelEquivalence(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	prep, err := inlinePrep(meta, src, release)
	if err != nil {
		t.Fatal(err)
	}
	want := batteryResults(t, meta, prep, release, func(cleaned, raw []Analyzer) error {
		return inlineRun(src, prep, cleaned, raw)
	})
	for _, workers := range workerCounts() {
		for _, in := range inputForms(t, src, workers) {
			got := batteryResults(t, meta, prep, release, func(cleaned, raw []Analyzer) error {
				return Run(in, prep, cleaned, raw)
			})
			for name, w := range want {
				if !reflect.DeepEqual(w, got[name]) {
					t.Errorf("Run(%T, workers=%d): %s differs from the inline oracle", in, workers, name)
				}
			}
		}
	}
}

// TestShardCountSweep drives one analyzer through every shard count 1..9,
// checking the partition/merge machinery at widths that do not divide the
// device count evenly.
func TestShardCountSweep(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	src := SliceSource(samples)
	prep, err := inlinePrep(meta, src, release)
	if err != nil {
		t.Fatal(err)
	}
	base := NewAggregate(meta)
	if err := inlineRun(src, prep, []Analyzer{base}, nil); err != nil {
		t.Fatal(err)
	}
	want := base.Result()
	for n := 1; n <= 9; n++ {
		sh := partition(t, src, n)
		if sh.Len() != len(samples) {
			t.Fatalf("n=%d: %d of %d samples routed", n, sh.Len(), len(samples))
		}
		agg := NewAggregate(meta)
		if err := Run(sh, prep, []Analyzer{agg}, nil); err != nil {
			t.Fatal(err)
		}
		if got := agg.Result(); !reflect.DeepEqual(want, got) {
			t.Errorf("shard count %d: aggregate differs from the inline oracle", n)
		}
	}
}

// TestShardsPartitioning checks the structural invariants the merge
// contract relies on: every device lands in exactly one shard and keeps its
// stream order there.
func TestShardsPartitioning(t *testing.T) {
	_, samples, _ := equivalenceFixture(t)
	sh := partition(t, SliceSource(samples), 5)
	devShard := make(map[trace.DeviceID]int)
	lastTime := make(map[trace.DeviceID]int64)
	for w := range sh.parts {
		sh.parts[w].each(w, func(w int, s *trace.Sample) error {
			if prev, ok := devShard[s.Device]; ok && prev != w {
				t.Fatalf("device %d in shards %d and %d", s.Device, prev, w)
			}
			devShard[s.Device] = w
			if s.Time < lastTime[s.Device] {
				t.Fatalf("device %d out of order in shard %d", s.Device, w)
			}
			lastTime[s.Device] = s.Time
			return nil
		})
	}
	if len(devShard) != 40 {
		t.Fatalf("saw %d devices, want 40", len(devShard))
	}
}

// erroringSource fails after a fixed number of samples, exercising fan-out
// error propagation.
func TestFanOutPropagatesSourceError(t *testing.T) {
	meta, samples, release := equivalenceFixture(t)
	boom := fmt.Errorf("boom")
	src := Source(func(fn func(*trace.Sample) error) error {
		for i := range samples {
			if i == 1000 {
				return boom
			}
			if err := fn(&samples[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := BuildPrep(meta, Stream(src, 4), release); err == nil {
		t.Fatal("source error swallowed")
	}
	agg := NewAggregate(meta)
	if err := Run(Stream(src, 4), nil, []Analyzer{agg}, nil); err == nil {
		t.Fatal("source error swallowed by Run")
	}
}
