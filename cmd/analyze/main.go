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
	"io"
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

var experiments = map[string]func(io.Writer, *core.CampaignRun){
	"table1": func(w io.Writer, r *core.CampaignRun) {
		o := r.Overview
		fmt.Fprintf(w, "year=%d android=%d ios=%d total=%d lteShare=%s wifiShare=%s\n",
			o.Year, o.NumAndroid, o.NumIOS, o.Total, render.Pct(o.LTEShare), render.Pct(o.WiFiShare))
	},
	"fig2": func(w io.Writer, r *core.CampaignRun) {
		a := r.Aggregate
		render.WeekCurve(w, "Cellular RX", a.CellRXMbps, "Mbps")
		render.WeekCurve(w, "Cellular TX", a.CellTXMbps, "Mbps")
		render.WeekCurve(w, "WiFi RX", a.WiFiRXMbps, "Mbps")
		render.WeekCurve(w, "WiFi TX", a.WiFiTXMbps, "Mbps")
		render.WeekAxis(w)
		fmt.Fprintf(w, "WiFi traffic share: %s\n", render.Pct(a.WiFiTrafficShare))
	},
	"fig3": func(w io.Writer, r *core.CampaignRun) {
		render.Quantiles(w, "daily RX", &r.Volumes.AllRX, "MB")
		render.Quantiles(w, "daily TX", &r.Volumes.AllTX, "MB")
	},
	"fig4": func(w io.Writer, r *core.CampaignRun) {
		v := &r.Volumes
		render.Quantiles(w, "WiFi RX", &v.WiFiRX, "MB")
		render.Quantiles(w, "WiFi TX", &v.WiFiTX, "MB")
		render.Quantiles(w, "cell RX", &v.CellRX, "MB")
		render.Quantiles(w, "cell TX", &v.CellTX, "MB")
		fmt.Fprintf(w, "silent interfaces: cell %s wifi %s\n",
			render.Pct(v.ZeroCellFrac), render.Pct(v.ZeroWiFiFrac))
	},
	"fig5": func(w io.Writer, r *core.CampaignRun) {
		render.HeatMap(w, r.UserTypes.Grid)
		u := r.UserTypes
		fmt.Fprintf(w, "cellular-intensive=%s wifi-intensive=%s mixed=%s above-diagonal=%s\n",
			render.Pct(u.CellularIntensiveFrac), render.Pct(u.WiFiIntensiveFrac),
			render.Pct(u.MixedFrac), render.Pct(u.MixedAboveDiagonal))
	},
	"table3": func(w io.Writer, r *core.CampaignRun) {
		v := r.VolumeStats
		fmt.Fprintf(w, "median MB/day: all=%.1f cell=%.1f wifi=%.1f\n", v.MedianAll, v.MedianCell, v.MedianWiFi)
		fmt.Fprintf(w, "mean   MB/day: all=%.1f cell=%.1f wifi=%.1f\n", v.MeanAll, v.MeanCell, v.MeanWiFi)
	},
	"fig6": func(w io.Writer, r *core.CampaignRun) {
		render.WeekCurve(w, "WiFi-traffic ratio", r.Ratios.All.TrafficRatio, "")
		render.WeekCurve(w, "WiFi-user ratio", r.Ratios.All.UserRatio, "")
		render.WeekAxis(w)
		fmt.Fprintf(w, "means: traffic=%.2f user=%.2f\n", r.Ratios.All.MeanTrafficRatio, r.Ratios.All.MeanUserRatio)
	},
	"fig7": func(w io.Writer, r *core.CampaignRun) {
		render.WeekCurve(w, "heavy traffic ratio", r.Ratios.Heavy.TrafficRatio, "")
		render.WeekCurve(w, "light traffic ratio", r.Ratios.Light.TrafficRatio, "")
		render.WeekAxis(w)
		fmt.Fprintf(w, "means: heavy=%.2f light=%.2f\n", r.Ratios.Heavy.MeanTrafficRatio, r.Ratios.Light.MeanTrafficRatio)
	},
	"fig8": func(w io.Writer, r *core.CampaignRun) {
		render.WeekCurve(w, "heavy user ratio", r.Ratios.Heavy.UserRatio, "")
		render.WeekCurve(w, "light user ratio", r.Ratios.Light.UserRatio, "")
		render.WeekAxis(w)
		fmt.Fprintf(w, "means: heavy=%.2f light=%.2f\n", r.Ratios.Heavy.MeanUserRatio, r.Ratios.Light.MeanUserRatio)
	},
	"fig9": func(w io.Writer, r *core.CampaignRun) {
		is := r.IfaceState
		render.WeekCurve(w, "Android WiFi-user", is.AndroidUser, "")
		render.WeekCurve(w, "Android WiFi-off", is.AndroidOff, "")
		render.WeekCurve(w, "Android WiFi-avail", is.AndroidAvailable, "")
		render.WeekCurve(w, "iOS WiFi-user", is.IOSUser, "")
		render.WeekAxis(w)
		fmt.Fprintf(w, "daytime means: off=%s available=%s | user And=%s iOS=%s\n",
			render.Pct(is.MeanAndroidOffDaytime), render.Pct(is.MeanAndroidAvailableDaytime),
			render.Pct(is.MeanAndroidUser), render.Pct(is.MeanIOSUser))
	},
	"table4": func(w io.Writer, r *core.CampaignRun) {
		c := r.Census
		fmt.Fprintf(w, "home=%d public=%d other=%d (office=%d) total=%d\n",
			c.Home, c.Public, c.Other, c.Office, c.Total)
	},
	"fig10": func(w io.Writer, r *core.CampaignRun) {
		fmt.Fprintln(w, "public AP density:")
		render.HeatMap(w, r.Density.Public)
		fmt.Fprintln(w, "home AP density:")
		render.HeatMap(w, r.Density.Home)
		fmt.Fprintf(w, "public cells >=1: %d  >100: %d  strong24>=100: %d  strong5>=100: %d\n",
			r.Density.PublicCellsAny, r.Density.PublicCells100,
			r.Density.StrongCells24_100, r.Density.StrongCells5_100)
	},
	"fig11": func(w io.Writer, r *core.CampaignRun) {
		render.WeekCurve(w, "home RX", r.Location.RXMbps[analysis.APHome], "Mbps")
		render.WeekCurve(w, "public RX", r.Location.RXMbps[analysis.APPublic], "Mbps")
		render.WeekCurve(w, "office RX", r.Location.RXMbps[analysis.APOffice], "Mbps")
		render.WeekAxis(w)
		fmt.Fprintf(w, "volume shares: home=%s public=%s office=%s\n",
			render.Pct(r.Location.Share[analysis.APHome]),
			render.Pct(r.Location.Share[analysis.APPublic]),
			render.Pct(r.Location.Share[analysis.APOffice]))
	},
	"fig12": func(w io.Writer, r *core.CampaignRun) {
		a := r.APsPerDay
		for b, label := range []string{"all", "heavy", "light"} {
			fmt.Fprintf(w, "%-5s 1=%s 2=%s 3=%s 4+=%s\n", label,
				render.Pct(a.CountShares[b][1]), render.Pct(a.CountShares[b][2]),
				render.Pct(a.CountShares[b][3]), render.Pct(a.CountShares[b][4]))
		}
		fmt.Fprintf(w, "multi-AP share=%s max=%d\n", render.Pct(a.MultiAPShare), a.MaxNetworks)
	},
	"table5": func(w io.Writer, r *core.CampaignRun) {
		for _, t := range r.APsPerDay.TopBreakdown() {
			fmt.Fprintf(w, "HPO %d%d%d  %s\n", t.HPO.H, t.HPO.P, t.HPO.O, render.Pct(t.Share))
		}
	},
	"fig13": func(w io.Writer, r *core.CampaignRun) {
		d := &r.Durations
		for _, c := range []analysis.APClass{analysis.APHome, analysis.APOffice, analysis.APPublic} {
			render.Quantiles(w, c.String()+" assoc hours", &d.Hours[c], "h")
		}
	},
	"fig14": func(w io.Writer, r *core.CampaignRun) {
		b := r.BandShare
		fmt.Fprintf(w, "5GHz share: home=%s office=%s public=%s\n",
			render.Pct(b.Home), render.Pct(b.Office), render.Pct(b.Public))
	},
	"fig15": func(w io.Writer, r *core.CampaignRun) {
		fmt.Fprintf(w, "mean RSSI: home=%.1f public=%.1f | weak(<-70dBm): home=%s public=%s\n",
			r.RSSI.MeanHome, r.RSSI.MeanPub,
			render.Pct(r.RSSI.WeakFracHome), render.Pct(r.RSSI.WeakFracPub))
	},
	"fig16": func(w io.Writer, r *core.CampaignRun) {
		for ch := 1; ch <= 13; ch++ {
			fmt.Fprintf(w, "ch%-2d home=%s public=%s\n", ch,
				render.Pct(r.Channels.Home[ch]), render.Pct(r.Channels.Public[ch]))
		}
	},
	"fig17": func(w io.Writer, r *core.CampaignRun) {
		pa := r.PublicAvail
		fmt.Fprintf(w, "<10 2.4GHz APs: %s | dev 5GHz any=%s strong=%s | offloadable=%s opportunity=%s\n",
			render.Pct(pa.Frac24Under10), render.Pct(pa.Dev5AnyFrac), render.Pct(pa.Dev5StrongFrac),
			render.Pct(pa.OffloadableFrac), render.Pct(pa.StrongOpportunityFrac))
	},
	"table6": func(w io.Writer, r *core.CampaignRun) { printApps(w, r, false) },
	"table7": func(w io.Writer, r *core.CampaignRun) { printApps(w, r, true) },
	"fig18": func(w io.Writer, r *core.CampaignRun) {
		if r.Update == nil {
			fmt.Fprintln(w, "no update event in this campaign (2015 only)")
			return
		}
		u := r.Update
		fmt.Fprintf(w, "updated=%s day1=%s day4=%s noHome=%s gap=%.1fd via public=%d office=%d\n",
			render.Pct(u.UpdatedFrac), render.Pct(u.FirstDayFrac), render.Pct(u.FirstFourDaysFrac),
			render.Pct(u.UpdatedNoHomeFrac), u.MedianDelayGapDays,
			u.ViaClassNoHome[analysis.APPublic], u.ViaClassNoHome[analysis.APOffice])
	},
	"table2": func(w io.Writer, r *core.CampaignRun) {
		if r.Survey == nil {
			fmt.Fprintln(w, "survey needs a fresh simulation (omit -trace)")
			return
		}
		for occ, pctv := range r.Survey.OccupationPct {
			fmt.Fprintf(w, "%-20s %5.1f%%\n", population.Occupation(occ), pctv)
		}
	},
	"table8": func(w io.Writer, r *core.CampaignRun) {
		if r.Survey == nil {
			fmt.Fprintln(w, "survey needs a fresh simulation (omit -trace)")
			return
		}
		for loc := survey.Location(0); loc < survey.NumLocations; loc++ {
			fmt.Fprintf(w, "%-7s yes=%5.1f%% no=%5.1f%% na=%4.1f%%\n", loc,
				r.Survey.AssocYes[loc], r.Survey.AssocNo[loc], r.Survey.AssocNA[loc])
		}
	},
	"table9": func(w io.Writer, r *core.CampaignRun) {
		if r.Survey == nil {
			fmt.Fprintln(w, "survey needs a fresh simulation (omit -trace)")
			return
		}
		for reason := survey.Reason(0); reason < survey.NumReasons; reason++ {
			fmt.Fprintf(w, "%-20s", reason)
			for loc := survey.Location(0); loc < survey.NumLocations; loc++ {
				v := r.Survey.ReasonPct[loc][reason]
				if v < 0 {
					fmt.Fprintf(w, "  %7s", "NA")
				} else {
					fmt.Fprintf(w, "  %6.1f%%", v)
				}
			}
			fmt.Fprintln(w)
		}
	},
	"interference": func(w io.Writer, r *core.CampaignRun) {
		ifr := r.Interfere
		fmt.Fprintf(w, "2.4GHz co-location pressure: home pairfrac=%s public pairfrac=%s\n",
			render.Pct(ifr.PairFrac[analysis.APHome]), render.Pct(ifr.PairFrac[analysis.APPublic]))
		fmt.Fprintf(w, "mean interferers: home=%.1f public=%.1f | multi-ESSID sites=%d\n",
			ifr.MeanInterferers[analysis.APHome], ifr.MeanInterferers[analysis.APPublic], ifr.MultiESSIDSites)
	},
	"carriers": func(w io.Writer, r *core.CampaignRun) {
		cr := r.Carriers
		fmt.Fprintf(w, "iOS WiFi-user ratio by carrier: docomo=%s au=%s softbank=%s (max spread %s)\n",
			render.Pct(cr.Ratio[1][0]), render.Pct(cr.Ratio[1][1]), render.Pct(cr.Ratio[1][2]),
			render.Pct(cr.MaxSpreadIOS))
		fmt.Fprintf(w, "Android:                        docomo=%s au=%s softbank=%s\n",
			render.Pct(cr.Ratio[0][0]), render.Pct(cr.Ratio[0][1]), render.Pct(cr.Ratio[0][2]))
	},
	"battery": func(w io.Writer, r *core.CampaignRun) {
		bt := r.Battery
		hours := make([]float64, 24)
		copy(hours, bt.MeanByHour[:])
		fmt.Fprintf(w, "mean battery by hour |%s|\n", render.Sparkline(hours))
		fmt.Fprintf(w, "on WiFi=%.1f%% on cellular=%.1f%% low(<20%%)=%s\n",
			bt.MeanAssociated, bt.MeanCellular, render.Pct(bt.LowBatteryFrac))
	},
	"fig19": func(w io.Writer, r *core.CampaignRun) {
		c := r.CapEffect
		fmt.Fprintf(w, "capped users=%s gap=%.2f halved: capped=%s other=%s capped w/o home AP=%s\n",
			render.Pct(c.CappedUserFrac), c.MedianGap,
			render.Pct(c.HalvedFracCapped), render.Pct(c.HalvedFracOther),
			render.Pct(c.CappedNoHomeAPFrac))
	},
}

// experimentIDs returns the experiment ids in sorted order.
func experimentIDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func printApps(w io.Writer, r *core.CampaignRun, tx bool) {
	for sc := analysis.AppScene(0); sc < analysis.NumAppScenes; sc++ {
		shares := r.Apps.RX[sc]
		if tx {
			shares = r.Apps.TX[sc]
		}
		if len(shares) > 5 {
			shares = shares[:5]
		}
		fmt.Fprintf(w, "%-12s", sc)
		for _, s := range shares {
			fmt.Fprintf(w, "  %s %.1f%%", s.Category, s.Share*100)
		}
		fmt.Fprintln(w)
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
		anaWorkers = flag.Int("analysis-workers", 0, "analysis workers (0 = one, -1 = all cores)")
		sketchMode = flag.Bool("sketch", false, "bounded-memory sketch analyzers (~1% quantile error)")
	)
	flag.Parse()

	if *exp == "" || *exp == "list" {
		fmt.Println("experiments:", strings.Join(experimentIDs(), " "))
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q (try -exp list)", *exp)
	}

	run, err := load(*tracePath, *year, core.Options{
		Scale: *scale, Seed: *seed,
		AnalysisWorkers: *anaWorkers,
		SketchMode:      *sketchMode,
	})
	if err != nil {
		log.Fatal(err)
	}
	fn(os.Stdout, run)
}

// load returns the campaign run to print: a fresh simulation of year when
// tracePath is empty, else the streaming, bounded-memory analysis of the
// trace file, which has no simulated world and so no survey.
func load(tracePath string, year int, opts core.Options) (*core.CampaignRun, error) {
	if tracePath == "" {
		return core.RunCampaign(year, opts)
	}
	cfg, err := config.ForYear(year, opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeCampaign(cfg, nil, analysis.FileSource(tracePath), opts)
}
