// Command analyze runs a single experiment on a trace file and prints its
// result as text. Experiment ids follow DESIGN.md (fig2, table3, fig18...).
//
// Usage:
//
//	analyze -trace campaign-2015.trace -year 2015 -exp fig2
//	analyze -exp list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"smartusage/internal/analysis"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/population"
	"smartusage/internal/render"
	"smartusage/internal/survey"
)

var experiments = map[string]func(*core.CampaignRun){
	"table1": func(r *core.CampaignRun) {
		o := r.Overview
		fmt.Printf("year=%d android=%d ios=%d total=%d lteShare=%s wifiShare=%s\n",
			o.Year, o.NumAndroid, o.NumIOS, o.Total, render.Pct(o.LTEShare), render.Pct(o.WiFiShare))
	},
	"fig2": func(r *core.CampaignRun) {
		a := r.Aggregate
		render.WeekCurve(os.Stdout, "Cellular RX", a.CellRXMbps, "Mbps")
		render.WeekCurve(os.Stdout, "Cellular TX", a.CellTXMbps, "Mbps")
		render.WeekCurve(os.Stdout, "WiFi RX", a.WiFiRXMbps, "Mbps")
		render.WeekCurve(os.Stdout, "WiFi TX", a.WiFiTXMbps, "Mbps")
		render.WeekAxis(os.Stdout)
		fmt.Printf("WiFi traffic share: %s\n", render.Pct(a.WiFiTrafficShare))
	},
	"fig3": func(r *core.CampaignRun) {
		render.Quantiles(os.Stdout, "daily RX", r.Volumes.AllRX, "MB")
		render.Quantiles(os.Stdout, "daily TX", r.Volumes.AllTX, "MB")
	},
	"fig4": func(r *core.CampaignRun) {
		v := r.Volumes
		render.Quantiles(os.Stdout, "WiFi RX", v.WiFiRX, "MB")
		render.Quantiles(os.Stdout, "WiFi TX", v.WiFiTX, "MB")
		render.Quantiles(os.Stdout, "cell RX", v.CellRX, "MB")
		render.Quantiles(os.Stdout, "cell TX", v.CellTX, "MB")
		fmt.Printf("silent interfaces: cell %s wifi %s\n",
			render.Pct(v.ZeroCellFrac), render.Pct(v.ZeroWiFiFrac))
	},
	"fig5": func(r *core.CampaignRun) {
		render.HeatMap(os.Stdout, r.UserTypes.Grid)
		u := r.UserTypes
		fmt.Printf("cellular-intensive=%s wifi-intensive=%s mixed=%s above-diagonal=%s\n",
			render.Pct(u.CellularIntensiveFrac), render.Pct(u.WiFiIntensiveFrac),
			render.Pct(u.MixedFrac), render.Pct(u.MixedAboveDiagonal))
	},
	"table3": func(r *core.CampaignRun) {
		v := r.VolumeStats
		fmt.Printf("median MB/day: all=%.1f cell=%.1f wifi=%.1f\n", v.MedianAll, v.MedianCell, v.MedianWiFi)
		fmt.Printf("mean   MB/day: all=%.1f cell=%.1f wifi=%.1f\n", v.MeanAll, v.MeanCell, v.MeanWiFi)
	},
	"fig6": func(r *core.CampaignRun) {
		render.WeekCurve(os.Stdout, "WiFi-traffic ratio", r.Ratios.All.TrafficRatio, "")
		render.WeekCurve(os.Stdout, "WiFi-user ratio", r.Ratios.All.UserRatio, "")
		render.WeekAxis(os.Stdout)
		fmt.Printf("means: traffic=%.2f user=%.2f\n", r.Ratios.All.MeanTrafficRatio, r.Ratios.All.MeanUserRatio)
	},
	"fig7": func(r *core.CampaignRun) {
		render.WeekCurve(os.Stdout, "heavy traffic ratio", r.Ratios.Heavy.TrafficRatio, "")
		render.WeekCurve(os.Stdout, "light traffic ratio", r.Ratios.Light.TrafficRatio, "")
		render.WeekAxis(os.Stdout)
		fmt.Printf("means: heavy=%.2f light=%.2f\n", r.Ratios.Heavy.MeanTrafficRatio, r.Ratios.Light.MeanTrafficRatio)
	},
	"fig8": func(r *core.CampaignRun) {
		render.WeekCurve(os.Stdout, "heavy user ratio", r.Ratios.Heavy.UserRatio, "")
		render.WeekCurve(os.Stdout, "light user ratio", r.Ratios.Light.UserRatio, "")
		render.WeekAxis(os.Stdout)
		fmt.Printf("means: heavy=%.2f light=%.2f\n", r.Ratios.Heavy.MeanUserRatio, r.Ratios.Light.MeanUserRatio)
	},
	"fig9": func(r *core.CampaignRun) {
		is := r.IfaceState
		render.WeekCurve(os.Stdout, "Android WiFi-user", is.AndroidUser, "")
		render.WeekCurve(os.Stdout, "Android WiFi-off", is.AndroidOff, "")
		render.WeekCurve(os.Stdout, "Android WiFi-avail", is.AndroidAvailable, "")
		render.WeekCurve(os.Stdout, "iOS WiFi-user", is.IOSUser, "")
		render.WeekAxis(os.Stdout)
		fmt.Printf("daytime means: off=%s available=%s | user And=%s iOS=%s\n",
			render.Pct(is.MeanAndroidOffDaytime), render.Pct(is.MeanAndroidAvailableDaytime),
			render.Pct(is.MeanAndroidUser), render.Pct(is.MeanIOSUser))
	},
	"table4": func(r *core.CampaignRun) {
		c := r.Census
		fmt.Printf("home=%d public=%d other=%d (office=%d) total=%d\n",
			c.Home, c.Public, c.Other, c.Office, c.Total)
	},
	"fig10": func(r *core.CampaignRun) {
		fmt.Println("public AP density:")
		render.HeatMap(os.Stdout, r.Density.Public)
		fmt.Println("home AP density:")
		render.HeatMap(os.Stdout, r.Density.Home)
		fmt.Printf("public cells >=1: %d  >100: %d  strong24>=100: %d  strong5>=100: %d\n",
			r.Density.PublicCellsAny, r.Density.PublicCells100,
			r.Density.StrongCells24_100, r.Density.StrongCells5_100)
	},
	"fig11": func(r *core.CampaignRun) {
		render.WeekCurve(os.Stdout, "home RX", r.Location.RXMbps[analysis.APHome], "Mbps")
		render.WeekCurve(os.Stdout, "public RX", r.Location.RXMbps[analysis.APPublic], "Mbps")
		render.WeekCurve(os.Stdout, "office RX", r.Location.RXMbps[analysis.APOffice], "Mbps")
		render.WeekAxis(os.Stdout)
		fmt.Printf("volume shares: home=%s public=%s office=%s\n",
			render.Pct(r.Location.Share[analysis.APHome]),
			render.Pct(r.Location.Share[analysis.APPublic]),
			render.Pct(r.Location.Share[analysis.APOffice]))
	},
	"fig12": func(r *core.CampaignRun) {
		a := r.APsPerDay
		for b, label := range []string{"all", "heavy", "light"} {
			fmt.Printf("%-5s 1=%s 2=%s 3=%s 4+=%s\n", label,
				render.Pct(a.CountShares[b][1]), render.Pct(a.CountShares[b][2]),
				render.Pct(a.CountShares[b][3]), render.Pct(a.CountShares[b][4]))
		}
		fmt.Printf("multi-AP share=%s max=%d\n", render.Pct(a.MultiAPShare), a.MaxNetworks)
	},
	"table5": func(r *core.CampaignRun) {
		for _, t := range r.APsPerDay.TopBreakdown() {
			fmt.Printf("HPO %d%d%d  %s\n", t.HPO.H, t.HPO.P, t.HPO.O, render.Pct(t.Share))
		}
	},
	"fig13": func(r *core.CampaignRun) {
		d := r.Durations
		for _, c := range []analysis.APClass{analysis.APHome, analysis.APOffice, analysis.APPublic} {
			render.Quantiles(os.Stdout, c.String()+" assoc hours", d.Hours[c], "h")
		}
	},
	"fig14": func(r *core.CampaignRun) {
		b := r.BandShare
		fmt.Printf("5GHz share: home=%s office=%s public=%s\n",
			render.Pct(b.Home), render.Pct(b.Office), render.Pct(b.Public))
	},
	"fig15": func(r *core.CampaignRun) {
		fmt.Printf("mean RSSI: home=%.1f public=%.1f | weak(<-70dBm): home=%s public=%s\n",
			r.RSSI.MeanHome, r.RSSI.MeanPub,
			render.Pct(r.RSSI.WeakFracHome), render.Pct(r.RSSI.WeakFracPub))
	},
	"fig16": func(r *core.CampaignRun) {
		for ch := 1; ch <= 13; ch++ {
			fmt.Printf("ch%-2d home=%s public=%s\n", ch,
				render.Pct(r.Channels.Home[ch]), render.Pct(r.Channels.Public[ch]))
		}
	},
	"fig17": func(r *core.CampaignRun) {
		pa := r.PublicAvail
		fmt.Printf("<10 2.4GHz APs: %s | dev 5GHz any=%s strong=%s | offloadable=%s opportunity=%s\n",
			render.Pct(pa.Frac24Under10), render.Pct(pa.Dev5AnyFrac), render.Pct(pa.Dev5StrongFrac),
			render.Pct(pa.OffloadableFrac), render.Pct(pa.StrongOpportunityFrac))
	},
	"table6": func(r *core.CampaignRun) { printApps(r, false) },
	"table7": func(r *core.CampaignRun) { printApps(r, true) },
	"fig18": func(r *core.CampaignRun) {
		if r.Update == nil {
			fmt.Println("no update event in this campaign (2015 only)")
			return
		}
		u := r.Update
		fmt.Printf("updated=%s day1=%s day4=%s noHome=%s gap=%.1fd via public=%d office=%d\n",
			render.Pct(u.UpdatedFrac), render.Pct(u.FirstDayFrac), render.Pct(u.FirstFourDaysFrac),
			render.Pct(u.UpdatedNoHomeFrac), u.MedianDelayGapDays,
			u.ViaClassNoHome[analysis.APPublic], u.ViaClassNoHome[analysis.APOffice])
	},
	"table2": func(r *core.CampaignRun) {
		if r.Survey == nil {
			fmt.Println("survey needs a fresh simulation (omit -trace)")
			return
		}
		for occ, pctv := range r.Survey.OccupationPct {
			fmt.Printf("%-20s %5.1f%%\n", population.Occupation(occ), pctv)
		}
	},
	"table8": func(r *core.CampaignRun) {
		if r.Survey == nil {
			fmt.Println("survey needs a fresh simulation (omit -trace)")
			return
		}
		for loc := survey.Location(0); loc < survey.NumLocations; loc++ {
			fmt.Printf("%-7s yes=%5.1f%% no=%5.1f%% na=%4.1f%%\n", loc,
				r.Survey.AssocYes[loc], r.Survey.AssocNo[loc], r.Survey.AssocNA[loc])
		}
	},
	"table9": func(r *core.CampaignRun) {
		if r.Survey == nil {
			fmt.Println("survey needs a fresh simulation (omit -trace)")
			return
		}
		for reason := survey.Reason(0); reason < survey.NumReasons; reason++ {
			fmt.Printf("%-20s", reason)
			for loc := survey.Location(0); loc < survey.NumLocations; loc++ {
				v := r.Survey.ReasonPct[loc][reason]
				if v < 0 {
					fmt.Printf("  %7s", "NA")
				} else {
					fmt.Printf("  %6.1f%%", v)
				}
			}
			fmt.Println()
		}
	},
	"interference": func(r *core.CampaignRun) {
		ifr := r.Interfere
		fmt.Printf("2.4GHz co-location pressure: home pairfrac=%s public pairfrac=%s\n",
			render.Pct(ifr.PairFrac[analysis.APHome]), render.Pct(ifr.PairFrac[analysis.APPublic]))
		fmt.Printf("mean interferers: home=%.1f public=%.1f | multi-ESSID sites=%d\n",
			ifr.MeanInterferers[analysis.APHome], ifr.MeanInterferers[analysis.APPublic], ifr.MultiESSIDSites)
	},
	"carriers": func(r *core.CampaignRun) {
		cr := r.Carriers
		fmt.Printf("iOS WiFi-user ratio by carrier: docomo=%s au=%s softbank=%s (max spread %s)\n",
			render.Pct(cr.Ratio[1][0]), render.Pct(cr.Ratio[1][1]), render.Pct(cr.Ratio[1][2]),
			render.Pct(cr.MaxSpreadIOS))
		fmt.Printf("Android:                        docomo=%s au=%s softbank=%s\n",
			render.Pct(cr.Ratio[0][0]), render.Pct(cr.Ratio[0][1]), render.Pct(cr.Ratio[0][2]))
	},
	"battery": func(r *core.CampaignRun) {
		bt := r.Battery
		hours := make([]float64, 24)
		copy(hours, bt.MeanByHour[:])
		fmt.Printf("mean battery by hour |%s|\n", render.Sparkline(hours))
		fmt.Printf("on WiFi=%.1f%% on cellular=%.1f%% low(<20%%)=%s\n",
			bt.MeanAssociated, bt.MeanCellular, render.Pct(bt.LowBatteryFrac))
	},
	"fig19": func(r *core.CampaignRun) {
		c := r.CapEffect
		fmt.Printf("capped users=%s gap=%.2f halved: capped=%s other=%s capped w/o home AP=%s\n",
			render.Pct(c.CappedUserFrac), c.MedianGap,
			render.Pct(c.HalvedFracCapped), render.Pct(c.HalvedFracOther),
			render.Pct(c.CappedNoHomeAPFrac))
	},
}

func printApps(r *core.CampaignRun, tx bool) {
	for sc := analysis.AppScene(0); sc < analysis.NumAppScenes; sc++ {
		shares := r.Apps.RX[sc]
		if tx {
			shares = r.Apps.TX[sc]
		}
		if len(shares) > 5 {
			shares = shares[:5]
		}
		fmt.Printf("%-12s", sc)
		for _, s := range shares {
			fmt.Printf("  %s %.1f%%", s.Category, s.Share*100)
		}
		fmt.Println()
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")
	var (
		tracePath  = flag.String("trace", "", "binary trace file (empty simulates fresh)")
		year       = flag.Int("year", 2015, "campaign year the trace belongs to")
		scale      = flag.Float64("scale", 0.25, "panel scale (for fresh simulation or count rescaling)")
		seed       = flag.Int64("seed", 1, "random seed (fresh simulation)")
		exp        = flag.String("exp", "", "experiment id (or 'list')")
		workers    = flag.Int("workers", 0, "simulation workers (0 = sequential, -1 = all cores)")
		anaWorkers = flag.Int("analysis-workers", 0, "analysis workers (0 = one, -1 = all cores)")
		sketchMode = flag.Bool("sketch", false, "bounded-memory sketch analyzers (~1% quantile error)")
	)
	flag.Parse()

	if *exp == "" || *exp == "list" {
		ids := make([]string, 0, len(experiments))
		for id := range experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println("experiments:", strings.Join(ids, " "))
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q (try -exp list)", *exp)
	}

	var run *core.CampaignRun
	var err error
	if *tracePath == "" {
		run, err = core.RunCampaign(*year, core.Options{
			Scale: *scale, Seed: *seed,
			Workers: *workers, AnalysisWorkers: *anaWorkers,
			SketchMode: *sketchMode,
		})
	} else {
		var cfg config.Campaign
		cfg, err = config.ForYear(*year, *scale, *seed)
		if err == nil {
			run, err = core.AnalyzeCampaignParallel(cfg, nil, analysis.FileSource(*tracePath),
				core.Options{AnalysisWorkers: *anaWorkers, SketchMode: *sketchMode})
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fn(run)
}
