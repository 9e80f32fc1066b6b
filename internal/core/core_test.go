package core_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smartusage/internal/analysis"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/obs"
	"smartusage/internal/sim"
	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// The study fixture is expensive (three full campaigns), so it is built
// once and shared across the shape tests below.
var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

func getStudy(t *testing.T) *core.Study {
	t.Helper()
	if testing.Short() {
		t.Skip("full-study fixture skipped in -short mode")
	}
	studyOnce.Do(func() {
		study, studyErr = core.RunStudy(core.Options{Scale: 0.15, Seed: 42})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

// between fails unless lo <= got <= hi.
func between(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3f outside [%.3f, %.3f]", name, got, lo, hi)
	}
}

// TestShapeTable1 checks panel composition and the LTE migration.
func TestShapeTable1(t *testing.T) {
	st := getStudy(t)
	between(t, "2013 LTE share", st.Runs[2013].Overview.LTEShare, 0.18, 0.40)
	between(t, "2015 LTE share", st.Runs[2015].Overview.LTEShare, 0.70, 0.90)
	if st.Runs[2013].Overview.LTEShare >= st.Runs[2015].Overview.LTEShare {
		t.Error("LTE share must grow 2013 → 2015 (Table 1)")
	}
}

// TestShapeTable3 checks the headline volume growth: medians near the
// paper's, WiFi overtaking cellular at the median by 2015, means dominated
// by heavy hitters.
func TestShapeTable3(t *testing.T) {
	st := getStudy(t)
	v13 := st.Runs[2013].VolumeStats
	v15 := st.Runs[2015].VolumeStats

	between(t, "2013 median all", v13.MedianAll, 40, 75)   // paper 57.9
	between(t, "2015 median all", v15.MedianAll, 95, 160)  // paper 126.5
	between(t, "2013 median cell", v13.MedianCell, 13, 27) // paper 19.5
	between(t, "2015 median wifi", v15.MedianWiFi, 38, 70) // paper 50.7

	// The crossover: cellular median leads in 2013, WiFi by 2015 (§3.2).
	if v13.MedianWiFi >= v13.MedianCell {
		t.Error("2013: WiFi median should trail cellular")
	}
	if v15.MedianWiFi <= v15.MedianCell {
		t.Error("2015: WiFi median should lead cellular")
	}
	// Heavy-hitter skew: means well above medians.
	if v15.MeanAll < 1.5*v15.MedianAll {
		t.Error("2015 mean should be pulled far above the median by heavy hitters")
	}
	// Growth directions.
	g, err := st.Growth()
	if err != nil {
		t.Fatal(err)
	}
	between(t, "AGR median all", g.AGRMedianAll, 0.3, 0.7)   // paper 48%
	between(t, "AGR median wifi", g.AGRMedianWiFi, 0.9, 2.2) // paper 134%
	if g.AGRMedianWiFi <= g.AGRMedianCell {
		t.Error("WiFi must grow faster than cellular")
	}
}

// TestShapeWiFiAdoption checks §3.1/§3.3: WiFi share of traffic and the
// ratio metrics all grow; heavy hitters offload more than light users.
func TestShapeWiFiAdoption(t *testing.T) {
	st := getStudy(t)
	r13, r15 := st.Runs[2013], st.Runs[2015]

	between(t, "2013 wifi traffic share", r13.Aggregate.WiFiTrafficShare, 0.50, 0.70) // paper 0.59
	between(t, "2015 wifi traffic share", r15.Aggregate.WiFiTrafficShare, 0.62, 0.85) // paper 0.67
	if r13.Aggregate.WiFiTrafficShare >= r15.Aggregate.WiFiTrafficShare {
		t.Error("WiFi traffic share must grow")
	}
	if r13.Ratios.All.MeanUserRatio >= r15.Ratios.All.MeanUserRatio {
		t.Error("WiFi-user ratio must grow (0.32 → 0.48)")
	}
	// Heavy hitters offload more than light users, both years (Figs. 7-8).
	for _, y := range []int{2013, 2015} {
		r := st.Runs[y].Ratios
		if r.Heavy.MeanTrafficRatio <= r.Light.MeanTrafficRatio {
			t.Errorf("%d: heavy traffic ratio %.2f <= light %.2f",
				y, r.Heavy.MeanTrafficRatio, r.Light.MeanTrafficRatio)
		}
	}
	between(t, "2015 heavy traffic ratio", r15.Ratios.Heavy.MeanTrafficRatio, 0.80, 0.98) // paper 0.89
}

// TestShapeUserTypes checks §3.3.1's typology.
func TestShapeUserTypes(t *testing.T) {
	st := getStudy(t)
	u13, u15 := st.Runs[2013].UserTypes, st.Runs[2015].UserTypes
	between(t, "2013 cellular-intensive", u13.CellularIntensiveFrac, 0.26, 0.44) // paper 0.35
	between(t, "2015 cellular-intensive", u15.CellularIntensiveFrac, 0.14, 0.32) // paper 0.22
	if u13.CellularIntensiveFrac <= u15.CellularIntensiveFrac {
		t.Error("cellular-intensive share must shrink")
	}
	between(t, "2015 wifi-intensive", u15.WiFiIntensiveFrac, 0.04, 0.16) // paper 0.08 stable
	if u15.MixedAboveDiagonal <= 0.5 {
		t.Error("most mixed user-days should sit above the diagonal (offloading)")
	}
}

// TestShapeInterfaceState checks Fig. 9: WiFi-off share falls, available
// stays near a quarter, iOS connects more than Android.
func TestShapeInterfaceState(t *testing.T) {
	st := getStudy(t)
	i13, i15 := st.Runs[2013].IfaceState, st.Runs[2015].IfaceState
	between(t, "2013 android off (day)", i13.MeanAndroidOffDaytime, 0.40, 0.62) // paper ~0.50
	between(t, "2015 android off (day)", i15.MeanAndroidOffDaytime, 0.28, 0.50) // paper ~0.40
	if i13.MeanAndroidOffDaytime <= i15.MeanAndroidOffDaytime {
		t.Error("WiFi-off share must fall across years")
	}
	between(t, "2015 android available (day)", i15.MeanAndroidAvailableDaytime, 0.15, 0.42) // paper ~0.25
	if i15.MeanIOSUser <= i15.MeanAndroidUser*0.95 {
		t.Errorf("iOS user ratio %.2f should exceed Android %.2f (§3.3.4)",
			i15.MeanIOSUser, i15.MeanAndroidUser)
	}
}

// TestShapeAPWorld checks Table 4 / Figs. 10-14: public deployment doubles,
// home dominates WiFi volume, multi-AP days grow past 40%, durations and
// band shares follow the paper.
func TestShapeAPWorld(t *testing.T) {
	st := getStudy(t)
	r13, r15 := st.Runs[2013], st.Runs[2015]

	if ratio := float64(r15.Census.Public) / float64(r13.Census.Public); ratio < 1.6 || ratio > 3.0 {
		t.Errorf("public AP census ratio %.2f, paper doubles", ratio)
	}
	// Home AP count tracks ownership: 66% → 79% of panel.
	own13 := float64(r13.Census.Home) / float64(r13.Overview.Total)
	own15 := float64(r15.Census.Home) / float64(r15.Overview.Total)
	between(t, "2013 home AP ownership", own13, 0.55, 0.75)
	between(t, "2015 home AP ownership", own15, 0.70, 0.88)

	// Home carries ~95% of WiFi volume.
	between(t, "2015 home wifi share", r15.Location.Share[analysis.APHome], 0.85, 0.99)
	if r15.Location.Share[analysis.APPublic] > 0.10 {
		t.Error("public WiFi share should stay small (§3.4.1)")
	}

	// Multi-AP association growth (Fig. 12): ~30% → >40%.
	between(t, "2013 multi-AP share", r13.APsPerDay.MultiAPShare, 0.20, 0.42)
	between(t, "2015 multi-AP share", r15.APsPerDay.MultiAPShare, 0.33, 0.55)
	if r13.APsPerDay.MultiAPShare >= r15.APsPerDay.MultiAPShare {
		t.Error("multi-AP share must grow")
	}

	// Durations (Fig. 13): home hours, office shorter, public ~1 h.
	d := r15.Durations
	between(t, "home p90 hours", d.P90Hours[analysis.APHome], 6, 18)        // paper ~12
	between(t, "office p90 hours", d.P90Hours[analysis.APOffice], 3, 10)    // paper ~8
	between(t, "public p90 hours", d.P90Hours[analysis.APPublic], 0.3, 2.5) // paper ~1

	// Band share (Fig. 14): public majority-5 GHz by 2015, home/office low.
	between(t, "2015 public 5GHz", r15.BandShare.Public, 0.35, 0.65) // paper >0.5
	if r15.BandShare.Home > 0.25 || r15.BandShare.Office > 0.30 {
		t.Errorf("home/office 5GHz shares %.2f/%.2f should stay under ~20%%",
			r15.BandShare.Home, r15.BandShare.Office)
	}
	if r13.BandShare.Public >= r15.BandShare.Public {
		t.Error("public 5GHz share must grow")
	}
}

// TestShapeQuality checks Figs. 15-17.
func TestShapeQuality(t *testing.T) {
	st := getStudy(t)
	r15 := st.Runs[2015]
	between(t, "home mean RSSI", r15.RSSI.MeanHome, -60, -45)  // paper -54
	between(t, "public mean RSSI", r15.RSSI.MeanPub, -66, -50) // paper ~-60
	if r15.RSSI.MeanHome <= r15.RSSI.MeanPub {
		t.Error("home signal should beat public")
	}
	between(t, "public weak frac", r15.RSSI.WeakFracPub, 0.04, 0.25) // paper 0.12
	if r15.RSSI.WeakFracHome >= r15.RSSI.WeakFracPub {
		t.Error("weak networks should concentrate in public (§3.4.4)")
	}

	// Channels (Fig. 16): public engineered onto 1/6/11; home channel-1
	// mass shrinks.
	between(t, "public 1/6/11 mass", r15.Channels.NonOverlapPub, 0.75, 0.98)
	if st.Runs[2013].Channels.Ch1Home <= r15.Channels.Ch1Home {
		t.Error("home channel-1 concentration must relax (§3.4.5)")
	}

	// Availability (Fig. 17).
	pa := r15.PublicAvail
	between(t, "<10 APs frac", pa.Frac24Under10, 0.80, 1.0)        // paper ~0.9
	between(t, "offloadable frac", pa.OffloadableFrac, 0.08, 0.30) // paper 0.15-0.20
	if d13 := st.Runs[2013].PublicAvail.Dev5AnyFrac; d13 >= pa.Dev5AnyFrac {
		t.Error("5 GHz discovery must grow 2013 → 2015")
	}
}

// TestShapeApps checks Tables 6-7: browser leads cellular, video rises on
// WiFi, productivity dominates WiFi-home upload, light users watch little
// video.
func TestShapeApps(t *testing.T) {
	st := getStudy(t)
	for _, y := range []int{2013, 2014, 2015} {
		apps := st.Runs[y].Apps
		if got := apps.RX[analysis.AppCellHome][0].Category; got != trace.CatBrowser {
			t.Errorf("%d cell-home RX leader %v, want browser", y, got)
		}
		if got := apps.RX[analysis.AppCellOther][0].Category; got != trace.CatBrowser {
			t.Errorf("%d cell-other RX leader %v, want browser", y, got)
		}
	}
	// Video leads WiFi-home download by 2014-15 (Table 6).
	for _, y := range []int{2014, 2015} {
		if got := st.Runs[y].Apps.RX[analysis.AppWiFiHome][0].Category; got != trace.CatVideo {
			t.Errorf("%d wifi-home RX leader %v, want video", y, got)
		}
	}
	// Productivity ranks top-4 of WiFi-home upload (Table 7).
	tx15 := st.Runs[2015].Apps.TX[analysis.AppWiFiHome]
	if idx := analysis.RankIndex(tx15, trace.CatProductivity); idx < 0 || idx > 3 {
		t.Errorf("productivity rank %d in wifi-home TX, want top-4", idx)
	}
	// Light users: video outside the top five of WiFi-home download (§3.6).
	light := st.Runs[2015].Apps.RXLight[analysis.AppWiFiHome]
	if idx := analysis.RankIndex(light, trace.CatVideo); idx >= 0 && idx < 3 {
		t.Errorf("light users' wifi-home video rank %d, want depressed vs all users", idx)
	}
}

// TestShapeUpdate checks Fig. 18: adoption volume, flash-crowd timing, and
// the home-AP dependence of update latency.
func TestShapeUpdate(t *testing.T) {
	st := getStudy(t)
	u := st.Runs[2015].Update
	if u == nil {
		t.Fatal("2015 run has no update analysis")
	}
	between(t, "updated frac", u.UpdatedFrac, 0.45, 0.72)        // paper 0.58
	between(t, "day-one frac", u.FirstDayFrac, 0.02, 0.20)       // paper 0.10
	between(t, "four-day frac", u.FirstFourDaysFrac, 0.35, 0.70) // paper ~0.50
	if u.UpdatedNoHomeFrac >= u.UpdatedFrac {
		t.Error("no-home-AP users must update less (14% vs 58%)")
	}
	between(t, "no-home updated frac", u.UpdatedNoHomeFrac, 0.03, 0.30) // paper 0.14
	if u.MedianDelayGapDays <= 0 {
		t.Error("no-home users must update later (paper: +3.5 days)")
	}
	// No-home updaters reach the update predominantly through public APs.
	if u.UpdatedNoHome > 3 &&
		u.ViaClassNoHome[analysis.APPublic] < u.ViaClassNoHome[analysis.APOffice] {
		t.Error("public should dominate no-home update paths (11 vs 2 in the paper)")
	}
}

// TestShapeCap checks Fig. 19: capped users rare, their next-day download
// depressed, the gap narrowing in 2015, and the no-home-AP concentration.
func TestShapeCap(t *testing.T) {
	st := getStudy(t)
	c14, c15 := st.Runs[2014].CapEffect, st.Runs[2015].CapEffect
	between(t, "2015 capped users", c15.CappedUserFrac, 0.001, 0.06) // paper 0.014
	if len(c15.CappedRatios) > 5 {
		if c15.HalvedFracCapped <= c15.HalvedFracOther {
			t.Error("capped users should halve their download more often (Fig. 19)")
		}
	}
	if len(c14.CappedRatios) > 5 && len(c15.CappedRatios) > 5 {
		if c15.MedianGap >= c14.MedianGap {
			t.Error("the capped-vs-others gap should narrow in 2015 (policy relaxed)")
		}
	}
	if c15.CappedNoHomeAPFrac < 0.3 && len(c15.CappedRatios) > 5 {
		t.Errorf("capped users without home APs %.2f, paper 0.65", c15.CappedNoHomeAPFrac)
	}
}

// TestShapeImplications checks the §4.1 arithmetic.
func TestShapeImplications(t *testing.T) {
	st := getStudy(t)
	im, err := st.Implications()
	if err != nil {
		t.Fatal(err)
	}
	between(t, "wifi:cell ratio", im.WiFiToCellRatio, 1.0, 2.2)           // paper 1.4
	between(t, "smartphone wifi share", im.SmartphoneWiFiShare, 0.5, 0.7) // paper 0.58
	between(t, "offload share of RBB", im.OffloadShareOfRBB, 0.18, 0.42)  // paper 0.28
	between(t, "per-home share", im.PerHomeShare, 0.07, 0.18)             // paper 0.12
}

// TestShapeSurvey checks Tables 8-9 head-lines.
func TestShapeSurvey(t *testing.T) {
	st := getStudy(t)
	sv13, sv15 := st.Runs[2013].Survey, st.Runs[2015].Survey
	if sv13 == nil || sv15 == nil {
		t.Fatal("missing surveys")
	}
	// Home yes grows 70 → 78; office stays low; public grows.
	if sv13.AssocYes[0] >= sv15.AssocYes[0] {
		t.Error("home-yes should grow (Table 8)")
	}
	if sv15.AssocYes[1] > 50 {
		t.Errorf("office-yes %.1f should stay low (BYOD rare)", sv15.AssocYes[1])
	}
}

// TestTraceDirRoundTrip runs a campaign that keeps its trace in TraceDir and
// one whose trace goes to a private temp dir, confirming the kept file
// exists and both produce identical results.
func TestTraceDirRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("disk round trip skipped in -short mode")
	}
	dir := t.TempDir()
	mem, err := core.RunCampaign(2013, core.Options{Scale: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := core.RunCampaign(2013, core.Options{Scale: 0.05, Seed: 9, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "campaign-2013.trace")); err != nil {
		t.Fatal(err)
	}
	// Map iteration order perturbs float accumulation at the ulp level, so
	// compare with a tolerance.
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(math.Abs(a)+1) }
	if !close(mem.VolumeStats.MedianAll, disk.VolumeStats.MedianAll) ||
		!close(mem.VolumeStats.MeanAll, disk.VolumeStats.MeanAll) ||
		!close(mem.VolumeStats.MeanWiFi, disk.VolumeStats.MeanWiFi) {
		t.Fatalf("disk analysis diverged: %+v vs %+v", mem.VolumeStats, disk.VolumeStats)
	}
	if mem.Census != disk.Census {
		t.Fatalf("census diverged: %+v vs %+v", mem.Census, disk.Census)
	}
}

func TestRunCampaignErrors(t *testing.T) {
	if _, err := core.RunCampaign(1999, core.Options{Scale: 0.05}); err == nil {
		t.Fatal("unknown year accepted")
	}
}

// TestAnalyzeCampaignRejectsEarlySample: a sample an hour before the
// campaign's first midnight is outside the window, not on day 0.
func TestAnalyzeCampaignRejectsEarlySample(t *testing.T) {
	cfg, err := config.ForYear(2015, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	early := trace.Sample{Device: 1, OS: trace.Android, Time: cfg.Start.Add(-time.Hour).Unix()}
	_, err = core.AnalyzeCampaign(cfg, nil, analysis.SliceSource([]trace.Sample{early}), core.Options{})
	if err == nil || !strings.Contains(err.Error(), "outside campaign window") {
		t.Fatalf("AnalyzeCampaign: %v, want the out-of-window error", err)
	}
}

// TestAnalyzeCampaignInstallsTracer: AnalyzeCampaign installs opts.Tracer
// itself, so its passes record their spans without a RunWithConfig around
// it.
func TestAnalyzeCampaignInstallsTracer(t *testing.T) {
	cfg, err := config.ForYear(2013, 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples []trace.Sample
	if err := sm.Run(func(s *trace.Sample) error {
		samples = append(samples, *s.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tracer := obs.NewTracer(&out)
	t.Cleanup(func() { analysis.SetTracer(nil) })
	if _, err := core.AnalyzeCampaign(cfg, sm, analysis.SliceSource(samples), core.Options{Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"analysis:prep", "analysis:run"} {
		if !strings.Contains(out.String(), `"name":"`+name+`"`) {
			t.Errorf("no %s span in the trace:\n%s", name, out.String())
		}
	}
}

func TestStudySubsetYears(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	st, err := core.RunStudy(core.Options{Scale: 0.05, Seed: 2, Years: []int{2014}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 1 || st.Runs[2014] == nil {
		t.Fatal("subset study wrong")
	}
	if _, err := st.Implications(); err == nil {
		t.Fatal("implications without 2015 accepted")
	}
}

// TestShapeCarrierIndependence checks §3.3.4's side claim: iOS WiFi-user
// ratios do not depend on the carrier.
func TestShapeCarrierIndependence(t *testing.T) {
	st := getStudy(t)
	for _, y := range []int{2013, 2015} {
		cr := st.Runs[y].Carriers
		if cr.MaxSpreadIOS > 0.08 {
			t.Errorf("%d: iOS carrier spread %.3f exceeds sampling noise", y, cr.MaxSpreadIOS)
		}
	}
}

// TestShapeFig2Peaks turns the paper's qualitative Fig. 2 reading into
// assertions: cellular peaks in the morning commute and evening on
// weekdays and runs higher on weekdays than weekends; WiFi peaks late
// evening and runs higher on weekends.
func TestShapeFig2Peaks(t *testing.T) {
	st := getStudy(t)
	a := st.Runs[2015].Aggregate

	cellWd := analysis.WeekdayHourMeans(a.CellRXMbps)
	wifiWd := analysis.WeekdayHourMeans(a.WiFiRXMbps)

	// Morning commute bump: 7-9 beats the small hours by a wide margin.
	if analysis.MeanOverHours(cellWd, 7, 10) < 3*analysis.MeanOverHours(cellWd, 2, 5) {
		t.Error("no cellular morning commute bump")
	}
	// Evening cellular activity (18-22) beats mid-afternoon (14-17).
	if analysis.MeanOverHours(cellWd, 18, 22) <= analysis.MeanOverHours(cellWd, 14, 17) {
		t.Error("no cellular evening peak")
	}
	// WiFi peak falls in the evening block (19-24), not the working day.
	if p := analysis.PeakHour(wifiWd, 0, 24); p < 18 && p > 8 {
		t.Errorf("WiFi weekday peak at %dh, expected evening", p)
	}
	// Weekday/weekend asymmetry (§3.1): cellular higher on weekdays, WiFi
	// higher on weekends.
	if analysis.WeekdayWeekendRatio(a.CellRXMbps) <= 1 {
		t.Error("cellular should run higher on weekdays")
	}
	if analysis.WeekdayWeekendRatio(a.WiFiRXMbps) >= 1 {
		t.Error("WiFi should run higher on weekends")
	}
}

// TestSeedStability re-runs the 2015 campaign under a different seed and
// checks that every headline distribution moves by only a small
// Kolmogorov-Smirnov distance — the calibration is a property of the model,
// not of one lucky seed.
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("seed-stability study skipped in -short mode")
	}
	a, err := core.RunCampaign(2015, core.Options{Scale: 0.12, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunCampaign(2015, core.Options{Scale: 0.12, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, xs, ys []float64, maxKS float64) {
		t.Helper()
		d, err := stats.KolmogorovSmirnov(xs, ys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d > maxKS {
			t.Errorf("%s: KS distance %.3f between seeds exceeds %.2f", name, d, maxKS)
		}
	}
	check("daily total RX", a.Volumes.AllRX.Values(), b.Volumes.AllRX.Values(), 0.08)
	check("daily WiFi RX", a.Volumes.WiFiRX.Values(), b.Volumes.WiFiRX.Values(), 0.08)
	check("daily cell RX", a.Volumes.CellRX.Values(), b.Volumes.CellRX.Values(), 0.08)
	check("home assoc hours", a.Durations.Hours[analysis.APHome].Values(), b.Durations.Hours[analysis.APHome].Values(), 0.10)
	check("public assoc hours", a.Durations.Hours[analysis.APPublic].Values(), b.Durations.Hours[analysis.APPublic].Values(), 0.10)

	// Scalar metrics within a few points.
	if d := a.Ratios.All.MeanTrafficRatio - b.Ratios.All.MeanTrafficRatio; d > 0.06 || d < -0.06 {
		t.Errorf("traffic ratio moved %.3f between seeds", d)
	}
	if d := a.Overview.WiFiShare - b.Overview.WiFiShare; d > 0.06 || d < -0.06 {
		t.Errorf("WiFi share moved %.3f between seeds", d)
	}
}

// compareRuns DeepEquals two CampaignRuns field by field (skipping the
// simulator world, which holds rng state) so a mismatch names the
// experiment that diverged instead of dumping two full runs.
func compareRuns(t *testing.T, label string, want, got *core.CampaignRun) {
	t.Helper()
	vw, vg := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < vw.NumField(); i++ {
		name := vw.Type().Field(i).Name
		if name == "Sim" {
			continue
		}
		if !reflect.DeepEqual(vw.Field(i).Interface(), vg.Field(i).Interface()) {
			t.Errorf("%s: field %s differs from the reference run", label, name)
		}
	}
}

// inlineAnalyze is the oracle for the streaming driver: it reads the trace
// into a single in-memory shard and runs both passes over it on the calling
// goroutine, each decoding the shard inline, with no fan-out, batch copy or
// decode-ahead.
func inlineAnalyze(t *testing.T, cfg config.Campaign, src analysis.Source, opts core.Options) *core.CampaignRun {
	t.Helper()
	run, err := analyzeInShards(cfg, nil, src, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestAnalyzeCampaignMatchesInlineOracle checks the one-worker streaming
// AnalyzeCampaign over a trace file, in exact and sketch mode, against the
// inline oracle. 2015 is used so the update-timing (raw) analyzer runs too.
func TestAnalyzeCampaignMatchesInlineOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle campaign skipped in -short mode")
	}
	cfg, err := config.ForYear(2015, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := core.RunWithConfig(cfg, core.Options{Scale: 0.05, Seed: 9, TraceDir: dir}); err != nil {
		t.Fatal(err)
	}
	src := analysis.FileSource(filepath.Join(dir, "campaign-2015.trace"))
	for _, sketch := range []bool{false, true} {
		opts := core.Options{SketchMode: sketch}
		want := inlineAnalyze(t, cfg, src, opts)
		got, err := core.AnalyzeCampaign(cfg, nil, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, fmt.Sprintf("sketch=%v", sketch), want, got)
	}
}

// TestShardsPrepError sends a prepass error through the in-memory input: a
// sample outside the campaign window in a 1-shard and a 4-shard partition
// must fail analysis.BuildPrep and core.AnalyzeCampaignShards alike, with
// every shard goroutine gone afterwards.
func TestShardsPrepError(t *testing.T) {
	cfg, err := config.ForYear(2013, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	meta := analysis.MetaFor(cfg)
	outside := func(err error) bool { return err != nil && strings.Contains(err.Error(), "outside campaign window") }
	for _, n := range []int{1, 4} {
		sh := analysis.NewShards(n)
		for dev := trace.DeviceID(1); dev <= 32; dev++ {
			s := trace.Sample{Device: dev, Time: cfg.Start.Add(time.Duration(dev) * time.Hour).Unix()}
			sh.Add(&s)
		}
		bad := trace.Sample{Device: 7, Time: cfg.Start.AddDate(0, 0, -2).Unix()}
		sh.Add(&bad)
		before := runtime.NumGoroutine()
		if _, err := analysis.BuildPrep(meta, sh, nil); !outside(err) {
			t.Errorf("%d shards: BuildPrep returned %v, want the out-of-window error", n, err)
		}
		if _, err := core.AnalyzeCampaignShards(cfg, nil, sh, core.Options{}); !outside(err) {
			t.Errorf("%d shards: AnalyzeCampaignShards returned %v, want the out-of-window error", n, err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d shards: %d goroutines after the passes, %d before", n, runtime.NumGoroutine(), before)
			}
		}
	}
}

// TestAnalysisWorkersEquivalence checks the tentpole determinism guarantee
// end to end: a campaign analyzed with sharded workers — both the streaming
// trace-file path and a 4-way in-memory partition of the same trace, the
// form pipebench's pipeline analyzes — produces a CampaignRun identical to
// the one-worker analysis, experiment by experiment. 2015 is used so the
// update-timing (raw) analyzer runs too.
func TestAnalysisWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence campaigns skipped in -short mode")
	}
	opts := core.Options{Scale: 0.05, Seed: 9}
	seq, err := core.RunCampaign(2015, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AnalysisWorkers = 4
	opts.TraceDir = t.TempDir()
	stream, err := core.RunCampaign(2015, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "streaming fan-out", seq, stream)

	src := analysis.FileSource(filepath.Join(opts.TraceDir, "campaign-2015.trace"))
	par, err := analyzeInShards(seq.Cfg, seq.Sim, src, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "in-memory shards", seq, par)
}
