package analysis

import (
	"testing"
	"time"

	"smartusage/internal/geo"
	"smartusage/internal/trace"
)

var jst = time.FixedZone("JST", 9*3600)

func testMeta(days int) Meta {
	m := Meta{
		Year:  2015,
		Start: time.Date(2015, 3, 2, 0, 0, 0, 0, jst), // a Monday
		Days:  days,
		Loc:   jst,
	}
	// Enable the fixed-offset clock like MetaFor does, so tests exercise
	// the production fast path (fastclock_test pins fast == slow).
	m.initFastClock()
	return m
}

// tb builds samples for tests.
type tb struct {
	meta    Meta
	samples []trace.Sample
}

func (b *tb) at(day, hour, min int) int64 {
	return b.meta.Start.AddDate(0, 0, day).Add(time.Duration(hour)*time.Hour + time.Duration(min)*time.Minute).Unix()
}

// add appends a sample and returns a pointer for tweaks.
func (b *tb) add(dev trace.DeviceID, os trace.OS, day, hour, min int) *trace.Sample {
	b.samples = append(b.samples, trace.Sample{
		Device:    dev,
		OS:        os,
		Time:      b.at(day, hour, min),
		GeoCX:     10,
		GeoCY:     10,
		WiFiState: trace.WiFiOn,
		Battery:   50,
	})
	return &b.samples[len(b.samples)-1]
}

// assoc appends an associated sample.
func (b *tb) assoc(dev trace.DeviceID, os trace.OS, day, hour, min int, bssid trace.BSSID, essid string, rssi int8) *trace.Sample {
	s := b.add(dev, os, day, hour, min)
	s.WiFiState = trace.WiFiAssociated
	s.APs = []trace.APObs{{BSSID: bssid, ESSID: essid, RSSI: rssi, Channel: 6, Band: trace.Band24, Associated: true}}
	return s
}

func (b *tb) src() Source { return SliceSource(b.samples) }

func (b *tb) prep(t *testing.T, release *time.Time) *Prep {
	t.Helper()
	p, err := BuildPrep(b.meta, b.src(), release, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// nightAssoc fills an entire night window (22:00-06:00 of one calendar day)
// with associations to the given pair.
func (b *tb) nightAssoc(dev trace.DeviceID, day int, bssid trace.BSSID, essid string) {
	for h := 0; h < 6; h++ {
		for m := 0; m < 60; m += 10 {
			b.assoc(dev, trace.Android, day, h, m, bssid, essid, -50)
		}
	}
	for h := 22; h < 24; h++ {
		for m := 0; m < 60; m += 10 {
			b.assoc(dev, trace.Android, day, h, m, bssid, essid, -50)
		}
	}
}

func TestHomeInferenceRule(t *testing.T) {
	b := &tb{meta: testMeta(3)}
	const dev = trace.DeviceID(1)
	const homeBSSID = trace.BSSID(0x100)
	b.nightAssoc(dev, 0, homeBSSID, "aterm-home")

	// A second device associates only 40% of the night — below threshold.
	const dev2 = trace.DeviceID(2)
	for h := 0; h < 3; h++ {
		for m := 0; m < 60; m += 10 {
			b.assoc(dev2, trace.Android, 0, h, m, 0x200, "aterm-other", -55)
		}
	}

	p := b.prep(t, nil)
	home, ok := p.HomeAPOf[dev]
	if !ok || home.BSSID != homeBSSID {
		t.Fatalf("home AP not inferred: %v %v", home, ok)
	}
	if p.ClassOf(home) != APHome {
		t.Fatalf("home pair classified %v", p.ClassOf(home))
	}
	if _, ok := p.HomeAPOf[dev2]; ok {
		t.Fatal("sub-threshold device got a home AP")
	}
}

func TestHomeInferenceFONException(t *testing.T) {
	// A public ESSID used around the clock at home classifies as home
	// (the paper's FON rule).
	b := &tb{meta: testMeta(2)}
	const dev = trace.DeviceID(3)
	b.nightAssoc(dev, 0, 0x300, "FON_FREE_INTERNET")
	p := b.prep(t, nil)
	key := APKey{BSSID: 0x300, ESSID: "FON_FREE_INTERNET"}
	if p.ClassOf(key) != APHome {
		t.Fatalf("FON home pair classified %v", p.ClassOf(key))
	}
}

func TestPublicClassification(t *testing.T) {
	b := &tb{meta: testMeta(2)}
	b.assoc(4, trace.Android, 0, 12, 0, 0x400, "0000docomo", -60)
	// Detected-only public AP (never associated).
	s := b.add(4, trace.Android, 0, 12, 10)
	s.APs = []trace.APObs{{BSSID: 0x401, ESSID: "0001softbank", RSSI: -80, Channel: 1, Band: trace.Band24}}
	p := b.prep(t, nil)
	if p.ClassOf(APKey{BSSID: 0x400, ESSID: "0000docomo"}) != APPublic {
		t.Fatal("associated public AP misclassified")
	}
	if p.ClassOf(APKey{BSSID: 0x401, ESSID: "0001softbank"}) != APPublic {
		t.Fatal("detected public AP misclassified")
	}
}

func TestOfficeRule(t *testing.T) {
	b := &tb{meta: testMeta(5)}
	const dev = trace.DeviceID(5)
	// Weekday business hours only, > 12 samples → office.
	for day := 0; day < 3; day++ { // Mon-Wed
		for h := 10; h < 17; h++ {
			b.assoc(dev, trace.Android, day, h, 0, 0x500, "corp-11", -55)
		}
	}
	// An AP used evenings → other.
	for day := 0; day < 3; day++ {
		for h := 18; h < 21; h++ {
			b.assoc(dev, trace.Android, day, h, 0, 0x501, "cafe-99", -60)
		}
	}
	p := b.prep(t, nil)
	if got := p.ClassOf(APKey{BSSID: 0x500, ESSID: "corp-11"}); got != APOffice {
		t.Fatalf("office AP classified %v", got)
	}
	if got := p.ClassOf(APKey{BSSID: 0x501, ESSID: "cafe-99"}); got != APOther {
		t.Fatalf("evening AP classified %v", got)
	}
}

func TestUserDayAggregation(t *testing.T) {
	b := &tb{meta: testMeta(2)}
	s := b.add(6, trace.Android, 0, 10, 0)
	s.CellRX, s.CellTX = 100, 10
	s.RAT = trace.RATLTE
	s = b.add(6, trace.Android, 0, 11, 0)
	s.CellRX = 50
	s.RAT = trace.RAT3G
	s = b.add(6, trace.Android, 1, 10, 0)
	s.WiFiRX, s.WiFiTX = 77, 7
	s.WiFiState = trace.WiFiOn
	// Tethered interval must be excluded (§2).
	s = b.add(6, trace.Android, 1, 12, 0)
	s.CellRX = 9999
	s.Tethered = true

	p := b.prep(t, nil)
	d0 := p.UserDays[UserDayKey{Device: 6, Day: 0}]
	if d0 == nil || d0.CellRX != 150 || d0.CellTX != 10 || d0.LTERX != 100 {
		t.Fatalf("day 0 aggregate %+v", d0)
	}
	d1 := p.UserDays[UserDayKey{Device: 6, Day: 1}]
	if d1 == nil || d1.WiFiRX != 77 || d1.CellRX != 0 {
		t.Fatalf("day 1 aggregate %+v (tethered data leaked?)", d1)
	}
}

func TestSampleOutsideWindowRejected(t *testing.T) {
	b := &tb{meta: testMeta(2)}
	s := b.add(7, trace.Android, 0, 10, 0)
	s.Time = b.meta.Start.AddDate(0, 0, 5).Unix() // beyond Days
	if _, err := BuildPrep(b.meta, b.src(), nil, 1); err == nil {
		t.Fatal("out-of-window sample accepted")
	}
}

func TestRanking(t *testing.T) {
	b := &tb{meta: testMeta(1)}
	// 100 devices with strictly increasing daily volume.
	for i := 1; i <= 100; i++ {
		s := b.add(trace.DeviceID(i), trace.Android, 0, 10, 0)
		s.CellRX = uint64(i) * 1_000_000 // 1..100 MB
	}
	p := b.prep(t, nil)
	var light, heavy int
	for i := 1; i <= 100; i++ {
		switch p.RankOf(trace.DeviceID(i), 0) {
		case RankLight:
			light++
			if i < 40 || i > 62 {
				t.Fatalf("device %d ranked light", i)
			}
		case RankHeavy:
			heavy++
			if i < 95 {
				t.Fatalf("device %d ranked heavy", i)
			}
		}
	}
	if light < 15 || light > 25 {
		t.Fatalf("light count %d", light)
	}
	if heavy < 3 || heavy > 7 {
		t.Fatalf("heavy count %d", heavy)
	}
	if p.RankOf(999, 0) != RankOther {
		t.Fatal("unknown device ranked")
	}
}

func TestRankingIgnoresTinyDays(t *testing.T) {
	b := &tb{meta: testMeta(1)}
	s := b.add(1, trace.Android, 0, 10, 0)
	s.CellRX = 10_000 // below the 0.1 MB floor
	p := b.prep(t, nil)
	if p.RankOf(1, 0) != RankOther {
		t.Fatal("sub-floor day was ranked")
	}
}

func TestUpdateDetection(t *testing.T) {
	meta := testMeta(10)
	b := &tb{meta: meta}
	release := meta.Start.AddDate(0, 0, 2).Add(9 * time.Hour)
	const dev = trace.DeviceID(9)

	// Normal traffic before and after.
	for day := 0; day < 6; day++ {
		s := b.add(dev, trace.IOS, day, 12, 0)
		s.WiFiRX = 30 << 20
		s.WiFiState = trace.WiFiOn
	}
	// The spike: 565 MB in one interval on day 3 at 20:00.
	spike := b.assoc(dev, trace.IOS, 3, 20, 0, 0x900, "0000docomo", -60)
	spike.WiFiRX = 565 << 20

	// An Android device with the same spike must not be detected.
	droid := b.assoc(10, trace.Android, 3, 20, 0, 0x901, "0000docomo", -60)
	droid.WiFiRX = 565 << 20

	p := b.prep(t, &release)
	day, ok := p.UpdateDay[dev]
	if !ok || day != 3 {
		t.Fatalf("update day %d, %v", day, ok)
	}
	if got := p.UpdateTime[dev]; got != spike.Time {
		t.Fatalf("update time %d want %d", got, spike.Time)
	}
	if _, ok := p.UpdateDay[10]; ok {
		t.Fatal("Android device detected as updating")
	}
	// Update day and the next day are excluded.
	for _, d := range []int{3, 4} {
		if ud := p.UserDays[UserDayKey{Device: dev, Day: d}]; ud == nil || !ud.Excluded {
			t.Fatalf("day %d not excluded", d)
		}
	}
	if ud := p.UserDays[UserDayKey{Device: dev, Day: 2}]; ud != nil && ud.Excluded {
		t.Fatal("pre-update day excluded")
	}
}

func TestUpdateBeforeReleaseIgnored(t *testing.T) {
	meta := testMeta(10)
	b := &tb{meta: meta}
	release := meta.Start.AddDate(0, 0, 5)
	s := b.assoc(11, trace.IOS, 1, 20, 0, 0x900, "0000docomo", -60)
	s.WiFiRX = 600 << 20
	p := b.prep(t, &release)
	if _, ok := p.UpdateDay[11]; ok {
		t.Fatal("pre-release spike detected as update")
	}
}

func TestAtHome(t *testing.T) {
	b := &tb{meta: testMeta(2)}
	const dev = trace.DeviceID(12)
	b.nightAssoc(dev, 0, 0x100, "aterm-x") // night cell is (10,10)
	p := b.prep(t, nil)
	if got := p.HomeCell[dev]; got != (geo.Cell{CX: 10, CY: 10}) {
		t.Fatalf("home cell %v", got)
	}
	home := trace.Sample{Device: dev, GeoCX: 10, GeoCY: 10}
	away := trace.Sample{Device: dev, GeoCX: 11, GeoCY: 10}
	if !p.AtHome(&home) || p.AtHome(&away) {
		t.Fatal("AtHome wrong")
	}
	unknown := trace.Sample{Device: 999, GeoCX: 10, GeoCY: 10}
	if p.AtHome(&unknown) {
		t.Fatal("unknown device at home")
	}
}

func TestMetaHelpers(t *testing.T) {
	meta := testMeta(7)
	start := meta.Start
	if meta.Day(start.Unix()) != 0 || meta.Day(start.AddDate(0, 0, 3).Unix()) != 3 {
		t.Fatal("Day wrong")
	}
	// Start is a Monday: hour-of-week = Monday*24.
	if got := meta.HourOfWeek(start.Unix()); got != int(time.Monday)*24 {
		t.Fatalf("HourOfWeek %d", got)
	}
	if meta.Hour(start.Add(13*time.Hour).Unix()) != 13 {
		t.Fatal("Hour wrong")
	}
	if !meta.Weekday(start.Unix()) {
		t.Fatal("Monday not a weekday")
	}
	if meta.Weekday(start.AddDate(0, 0, 5).Unix()) {
		t.Fatal("Saturday is a weekday")
	}
	occ := meta.HourOfWeekOccurrences()
	total := 0
	for _, n := range occ {
		total += n
	}
	if total != 7*24 {
		t.Fatalf("occurrence total %d", total)
	}
}

func TestRunCleaning(t *testing.T) {
	meta := testMeta(10)
	b := &tb{meta: meta}
	release := meta.Start.AddDate(0, 0, 2)
	const dev = trace.DeviceID(20)
	// Spike on day 3.
	s := b.assoc(dev, trace.IOS, 3, 20, 0, 0x900, "0000docomo", -60)
	s.WiFiRX = 600 << 20
	// Normal samples on days 3, 4, 5.
	b.add(dev, trace.IOS, 3, 21, 0)
	b.add(dev, trace.IOS, 4, 10, 0)
	b.add(dev, trace.IOS, 5, 10, 0)
	// A tethered sample on day 5.
	tether := b.add(dev, trace.IOS, 5, 11, 0)
	tether.Tethered = true
	tether.CellRX = 1 << 30

	p := b.prep(t, &release)
	var clean, raw counter
	if err := Run(b.src(), p, []Analyzer{&clean}, []Analyzer{&raw}, 1); err != nil {
		t.Fatal(err)
	}
	if raw.n != len(b.samples) {
		t.Fatalf("raw analyzer saw %d of %d", raw.n, len(b.samples))
	}
	// Cleaned: day-3 and day-4 samples dropped (update excision) plus the
	// tethered sample — only the day-5 normal sample remains.
	if clean.n != 1 {
		t.Fatalf("cleaned analyzer saw %d samples, want 1", clean.n)
	}
}

type counter struct{ n int }

func (c *counter) Add(*trace.Sample) { c.n++ }
