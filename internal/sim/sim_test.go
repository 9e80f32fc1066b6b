package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"smartusage/internal/config"
	"smartusage/internal/trace"
)

func smallConfig(t *testing.T, year int) config.Campaign {
	t.Helper()
	cfg, err := config.ForYear(year, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 4
	// The shortened window no longer contains the iOS release date.
	cfg.Update = nil
	return cfg
}

func runSim(t *testing.T, cfg config.Campaign) []trace.Sample {
	t.Helper()
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Sample
	if err := sm.Run(func(s *trace.Sample) error {
		out = append(out, *s.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig(t, 2014)
	cfg.Days = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEverySampleValid(t *testing.T) {
	for _, year := range config.Years {
		cfg := smallConfig(t, year)
		for _, s := range runSim(t, cfg) {
			if err := s.Validate(); err != nil {
				t.Fatalf("%d: %v", year, err)
			}
		}
	}
}

func TestSampleCountAndTimeRange(t *testing.T) {
	cfg := smallConfig(t, 2014)
	cfg.Population.LateJoinFrac = 0
	cfg.Population.DropoutFrac = 0
	cfg.Population.OutageProbPerDay = 0
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := runSim(t, cfg)
	want := len(sm.Panel.Users) * cfg.Days * 144
	if len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	start, end := cfg.Start.Unix(), cfg.End().Unix()
	for _, s := range samples {
		if s.Time < start || s.Time >= end {
			t.Fatalf("sample at %d outside [%d, %d)", s.Time, start, end)
		}
	}
}

func TestPerDeviceTimeOrdered(t *testing.T) {
	cfg := smallConfig(t, 2015)
	last := map[trace.DeviceID]int64{}
	for _, s := range runSim(t, cfg) {
		if prev, ok := last[s.Device]; ok && s.Time <= prev {
			t.Fatalf("device %s time went backwards: %d after %d", s.Device, s.Time, prev)
		}
		last[s.Device] = s.Time
	}
}

// traceDigests pins the simulated stream: the sha256 of each year's
// smallConfig campaign written through trace.Writer, and its sample count.
// The random draw order is the output, so a moved draw, a reordered float
// operation feeding one, or a change to the Writer's framing moves a digest.
// Update these only for an intended change to the simulated data.
var traceDigests = map[int]struct {
	samples int
	sha256  string
}{
	2013: {46472, "7f89e0ab65369b9f809910f1606d59bcd0787bed74cdbba87699b74514c20318"},
	2014: {45370, "3fa85a69aebee697bd6102fc1a8dd23bd7952585eeaac24d4d54ad2bb8b60a8c"},
	2015: {42956, "a87df072a85fb65f7cdc3430df80572b8b80715071d8bc831e75561c4b56cf1d"},
}

// traceDigest runs the campaign through a trace.Writer into sha256, and
// counts the distinct shop APs the stream observes.
func traceDigest(t *testing.T, cfg config.Campaign) (samples int, sum string, shops int) {
	t.Helper()
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	w := trace.NewWriter(h)
	shop := make(map[trace.BSSID]bool)
	if err := sm.Run(func(s *trace.Sample) error {
		for _, ap := range s.APs {
			if isShopESSID(ap.ESSID) {
				shop[ap.BSSID] = true
			}
		}
		return w.Write(s)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return w.Count(), hex.EncodeToString(h.Sum(nil)), len(shop)
}

// isShopESSID recognises the ESSIDs wifi.Deployment.NewOpenAP gives shop
// and hotel APs.
func isShopESSID(essid string) bool {
	for _, prefix := range []string{"cafe_wifi_", "hotel-guest-", "shop-free-"} {
		if strings.HasPrefix(essid, prefix) {
			return true
		}
	}
	return false
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig(t, 2013)
	a := runSim(t, cfg)
	b := runSim(t, cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		sa, sb := &a[i], &b[i]
		if sa.Device != sb.Device || sa.Time != sb.Time ||
			sa.CellRX != sb.CellRX || sa.WiFiRX != sb.WiFiRX ||
			sa.WiFiState != sb.WiFiState || len(sa.APs) != len(sb.APs) {
			t.Fatalf("sample %d differs between identical runs", i)
		}
	}
	for _, year := range config.Years {
		want := traceDigests[year]
		n, sum, shops := traceDigest(t, smallConfig(t, year))
		if n != want.samples || sum != want.sha256 {
			t.Errorf("%d: %d samples, sha256 %s; want %d samples, sha256 %s",
				year, n, sum, want.samples, want.sha256)
		}
		// Shop APs are provisioned from the deployment users share, in the
		// order users open them; the digest pins that order only if the
		// stream holds one.
		t.Logf("%d: %d shop APs observed", year, shops)
		if shops == 0 {
			t.Errorf("%d: no shop AP observed, so the digest does not cover their naming", year)
		}
	}
}

// TestRunAllocsPerSample pins simulation's allocation contract: a user's
// schedule, per-day scene weights and allocation scratch live in its state
// and are reused, so what allocates is per user (its generator and state)
// or per association session, never per sample.
func TestRunAllocsPerSample(t *testing.T) {
	for _, year := range config.Years {
		sm, err := New(smallConfig(t, year))
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		if err := sm.Run(func(*trace.Sample) error { samples++; return nil }); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if err := sm.Run(func(*trace.Sample) error { return nil }); err != nil {
				panic(err)
			}
		})
		perSample := allocs / float64(samples)
		t.Logf("%d: %.4f allocations per sample", year, perSample)
		if perSample >= 0.1 {
			t.Errorf("%d: Run allocates %.3f times per sample, want < 0.1", year, perSample)
		}
	}
}

// Run stops at the first sink error and returns it.
func TestRunPropagatesSinkError(t *testing.T) {
	sm, err := New(smallConfig(t, 2013))
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	calls := 0
	err = sm.Run(func(*trace.Sample) error { calls++; return errStop })
	if !errors.Is(err, errStop) || calls != 1 {
		t.Fatalf("Run = %v after %d sink calls, want %v after 1", err, calls, errStop)
	}
}

func TestSeedChangesOutput(t *testing.T) {
	cfg := smallConfig(t, 2013)
	a := runSim(t, cfg)
	cfg.Seed = 99
	b := runSim(t, cfg)
	same := 0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].CellRX == b[i].CellRX && a[i].WiFiRX == b[i].WiFiRX {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestIOSVisibilityFilter(t *testing.T) {
	cfg := smallConfig(t, 2015)
	for _, s := range runSim(t, cfg) {
		if s.OS != trace.IOS {
			continue
		}
		if len(s.Apps) != 0 {
			t.Fatal("iOS sample carries app records (§2)")
		}
		for _, ap := range s.APs {
			if !ap.Associated {
				t.Fatal("iOS sample carries a non-associated scan result (§2)")
			}
		}
	}
}

func TestAndroidScansWhenOn(t *testing.T) {
	cfg := smallConfig(t, 2015)
	var onBins, scanned int
	for _, s := range runSim(t, cfg) {
		if s.OS != trace.Android || s.WiFiState == trace.WiFiOff {
			continue
		}
		onBins++
		if len(s.APs) > 0 {
			scanned++
		}
	}
	if onBins == 0 {
		t.Fatal("no Android WiFi-on intervals")
	}
	if float64(scanned)/float64(onBins) < 0.3 {
		t.Fatalf("scans present in only %d/%d on-intervals", scanned, onBins)
	}
}

func TestWiFiOffMeansNoObservations(t *testing.T) {
	cfg := smallConfig(t, 2014)
	for _, s := range runSim(t, cfg) {
		if s.WiFiState == trace.WiFiOff && len(s.APs) > 0 {
			t.Fatal("WiFi-off sample carries AP observations")
		}
	}
}

func TestTetheringFlagged(t *testing.T) {
	cfg, err := config.ForYear(2015, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 10
	cfg.Update = nil // release date falls outside the shortened window
	tethered := 0
	for _, s := range runSim(t, cfg) {
		if s.Tethered {
			tethered++
			if s.CellRX < 1<<20 {
				t.Fatal("tethered interval without bulk cellular traffic")
			}
		}
	}
	if tethered == 0 {
		t.Fatal("no tethered intervals generated")
	}
}

func TestUpdateEventProducesSpikes(t *testing.T) {
	cfg, err := config.ForYear(2015, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	release := cfg.Update.Release.Unix()
	spikes := map[trace.DeviceID]bool{}
	for _, s := range runSim(t, cfg) {
		if s.OS == trace.IOS && s.Time >= release && s.WiFiRX >= cfg.Update.SizeBytes {
			spikes[s.Device] = true
		}
	}
	if len(spikes) == 0 {
		t.Fatal("no iOS update downloads simulated")
	}
}

func TestCellularIntensiveNeverAssociates(t *testing.T) {
	cfg := smallConfig(t, 2013)
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intensive := map[trace.DeviceID]bool{}
	for i := range sm.Panel.Users {
		u := &sm.Panel.Users[i]
		if u.Intensity == 0 { // population.CellularIntensive
			intensive[u.ID] = true
		}
	}
	if err := sm.Run(func(s *trace.Sample) error {
		if intensive[s.Device] && s.WiFiState == trace.WiFiAssociated {
			t.Fatalf("cellular-intensive device %s associated", s.Device)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPoisson(t *testing.T) {
	rng := newTestRand()
	for _, lambda := range []float64{0, 0.5, 3, 50} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, lambda))
		}
		mean := sum / n
		if lambda == 0 && mean != 0 {
			t.Fatalf("poisson(0) mean %g", mean)
		}
		if lambda > 0 && (mean < lambda*0.93 || mean > lambda*1.07) {
			t.Fatalf("poisson(%g) mean %g", lambda, mean)
		}
	}
}

func TestPanelChurn(t *testing.T) {
	cfg, err := config.ForYear(2015, 0.15, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 12
	cfg.Update = nil
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perDevice := map[trace.DeviceID]int{}
	total := 0
	if err := sm.Run(func(s *trace.Sample) error {
		perDevice[s.Device]++
		total++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	full := cfg.Days * 144
	var partial int
	for _, n := range perDevice {
		if n < full {
			partial++
		}
		if n > full {
			t.Fatalf("device exceeded full coverage: %d > %d", n, full)
		}
	}
	if partial == 0 {
		t.Fatal("churn produced no partial devices")
	}
	// Churn is a small effect: most of the panel still reports fully.
	if float64(partial) > 0.35*float64(len(perDevice)) {
		t.Fatalf("churn too aggressive: %d of %d devices partial", partial, len(perDevice))
	}
	if total < len(perDevice)*full*8/10 {
		t.Fatalf("churn removed too many samples: %d of %d", total, len(perDevice)*full)
	}
}

func TestSplitmix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := splitmix64(i)
		if seen[v] {
			t.Fatal("splitmix64 collision in small range")
		}
		seen[v] = true
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(12345)) }
