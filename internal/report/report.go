// Package report renders a full paper-versus-measured experiment report
// from a completed study. Every table and figure of the paper's evaluation
// gets a section with the published values (transcribed from the paper
// text) next to the values measured on the synthetic substrate, plus text
// renderings of the figure curves.
package report

import (
	"fmt"
	"io"

	"smartusage/internal/analysis"
	"smartusage/internal/core"
	"smartusage/internal/macro"
	"smartusage/internal/population"
	"smartusage/internal/render"
	"smartusage/internal/survey"
)

// Write renders the full report for a study that ran all three campaigns.
func Write(w io.Writer, st *core.Study) error {
	r := &reporter{w: w, st: st}
	r.header()
	r.fig1()
	r.table1()
	r.table2()
	r.fig2()
	r.fig3and4()
	r.fig5()
	r.table3()
	r.fig6to8()
	r.fig9()
	r.table4()
	r.fig10()
	r.fig11()
	r.fig12table5()
	r.fig13()
	r.fig14()
	r.fig15()
	r.fig16()
	r.fig17()
	r.tables6and7()
	r.fig18()
	r.fig19()
	r.table8()
	r.table9()
	r.implications()
	r.extensions()
	return r.err
}

type reporter struct {
	w   io.Writer
	st  *core.Study
	err error
}

func (r *reporter) pf(format string, args ...any) {
	if r.err != nil {
		return
	}
	_, r.err = fmt.Fprintf(r.w, format, args...)
}

func (r *reporter) table(headers []string, rows [][]string) {
	if r.err != nil {
		return
	}
	r.pf("```\n")
	r.err = render.Table(r.w, headers, rows)
	r.pf("```\n\n")
}

func (r *reporter) run(year int) *core.CampaignRun { return r.st.Runs[year] }

func (r *reporter) years() []int {
	var ys []int
	for _, y := range []int{2013, 2014, 2015} {
		if _, ok := r.st.Runs[y]; ok {
			ys = append(ys, y)
		}
	}
	return ys
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
func f1(f float64) string  { return fmt.Sprintf("%.1f", f) }
func f2(f float64) string  { return fmt.Sprintf("%.2f", f) }
func itoa(i int) string    { return fmt.Sprintf("%d", i) }

func (r *reporter) header() {
	r.pf("# EXPERIMENTS — paper vs. measured\n\n")
	r.pf("Reproduction of Fukuda, Asai, Nagami, \"Tracking the Evolution and Diversity\n")
	r.pf("in Network Usage of Smartphones\" (IMC 2015) on the synthetic Greater-Tokyo\n")
	r.pf("substrate (scale %.2f, seed %d). Paper columns transcribe the published\n", r.st.Opts.Scale, r.st.Opts.Seed)
	r.pf("values; measured columns come from this run. Counts scale with the panel\n")
	r.pf("(multiply AP counts by 1/scale to compare with the paper's absolute numbers).\n\n")
}

func (r *reporter) fig1() {
	r.pf("## Fig. 1 — National broadband vs cellular growth (context)\n\n")
	rows := [][]string{}
	for _, p := range macro.Fig1Series {
		share := ""
		if p.RBBGbps > 0 {
			share = pct(p.CellGbps / p.RBBGbps)
		}
		rows = append(rows, []string{itoa(p.Year), f1(p.RBBGbps), f1(p.CellGbps), share})
	}
	r.table([]string{"year", "RBB Gbps", "cell Gbps", "cell/RBB"}, rows)
	share, _ := macro.CellShareOfRBB(2014)
	r.pf("Paper: cellular reaches 20%% of residential broadband by end of 2014; model: %s.\n\n", pct(share))
}

func (r *reporter) table1() {
	r.pf("## Table 1 — Datasets overview\n\n")
	paperLTE := map[int]string{2013: "25%", 2014: "70%", 2015: "80%"}
	rows := [][]string{}
	for _, y := range r.years() {
		o := r.run(y).Overview
		rows = append(rows, []string{
			itoa(y), itoa(o.NumAndroid), itoa(o.NumIOS), itoa(o.Total),
			paperLTE[y], pct(o.LTEShare),
		})
	}
	r.table([]string{"year", "#And", "#iOS", "#total", "%LTE paper", "%LTE measured"}, rows)
}

func (r *reporter) table2() {
	r.pf("## Table 2 — User demographics (survey)\n\n")
	rows := [][]string{}
	for occ := population.Occupation(0); occ < population.NumOccupations; occ++ {
		row := []string{occ.String()}
		for _, y := range r.years() {
			paper := population.OccupationShares[y][occ]
			row = append(row, f1(paper))
			if sv := r.run(y).Survey; sv != nil {
				row = append(row, f1(sv.OccupationPct[occ]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	headers := []string{"occupation"}
	for _, y := range r.years() {
		headers = append(headers, fmt.Sprintf("%d paper", y), fmt.Sprintf("%d meas", y))
	}
	r.table(headers, rows)
}

func (r *reporter) fig2() {
	r.pf("## Fig. 2 — Aggregated traffic volume (2015, hour of week)\n\n```\n")
	if run := r.run(2015); run != nil {
		a := run.Aggregate
		render.WeekCurve(r.w, "Cellular RX", a.CellRXMbps, "Mbps")
		render.WeekCurve(r.w, "Cellular TX", a.CellTXMbps, "Mbps")
		render.WeekCurve(r.w, "WiFi RX", a.WiFiRXMbps, "Mbps")
		render.WeekCurve(r.w, "WiFi TX", a.WiFiTXMbps, "Mbps")
		render.WeekAxis(r.w)
	}
	r.pf("```\n\n")
	rows := [][]string{}
	paperShare := map[int]string{2013: "59%", 2014: "~63%", 2015: "67%"}
	for _, y := range r.years() {
		rows = append(rows, []string{itoa(y), paperShare[y], pct(r.run(y).Aggregate.WiFiTrafficShare)})
	}
	r.table([]string{"year", "WiFi share paper", "WiFi share measured"}, rows)
	r.pf("Expected shape: WiFi volume exceeds cellular; cellular peaks at commute/lunch\nhours, WiFi peaks late evening; cellular dips on weekends while WiFi rises.\n\n")
}

func (r *reporter) fig3and4() {
	r.pf("## Figs. 3-4 — Daily per-user traffic volume CDFs\n\n```\n")
	for _, y := range r.years() {
		v := &r.run(y).Volumes
		render.Quantiles(r.w, fmt.Sprintf("%d all RX", y), &v.AllRX, "MB")
		render.Quantiles(r.w, fmt.Sprintf("%d all TX", y), &v.AllTX, "MB")
	}
	if run := r.run(2015); run != nil {
		v := &run.Volumes
		render.Quantiles(r.w, "2015 WiFi RX (active)", &v.WiFiRX, "MB")
		render.Quantiles(r.w, "2015 cell RX (active)", &v.CellRX, "MB")
		fmt.Fprintf(r.w, "2015 silent interfaces: cellular %s (paper 8%%), WiFi %s (paper 20%%)\n",
			pct(v.ZeroCellFrac), pct(v.ZeroWiFiFrac))
		fmt.Fprintf(r.w, "heaviest user-day: %.0f MB (paper: 11 GB)\n", v.MaxRXMB)
	}
	r.pf("```\n\nExpected shape: unimodal in log space, RX ≈ 5x TX, volumes grow year over year.\n\n")
}

func (r *reporter) fig5() {
	r.pf("## Fig. 5 — Daily cellular-vs-WiFi volume per user (2015)\n\n")
	run := r.run(2015)
	if run == nil {
		return
	}
	r.pf("```\n")
	render.HeatMap(r.w, run.UserTypes.Grid)
	r.pf("```\n(x: log10 cellular MB in [-2,3]; y: log10 WiFi MB in [-2,3])\n\n")
	rows := [][]string{
		{"cellular-intensive", "22% (35% in 2013)", pct(run.UserTypes.CellularIntensiveFrac)},
		{"WiFi-intensive", "8% (stable)", pct(run.UserTypes.WiFiIntensiveFrac)},
		{"mixed user-days above diagonal", "55%", pct(run.UserTypes.MixedAboveDiagonal)},
	}
	if run13 := r.run(2013); run13 != nil {
		rows = append(rows, []string{"cellular-intensive 2013", "35%", pct(run13.UserTypes.CellularIntensiveFrac)})
	}
	r.table([]string{"quantity", "paper", "measured"}, rows)
}

func (r *reporter) table3() {
	r.pf("## Table 3 — Daily download volume per user and AGR\n\n")
	paper := map[int][6]float64{
		2013: {57.9, 19.5, 9.2, 102.9, 42.2, 60.7},
		2014: {90.3, 27.6, 24.3, 179.9, 58.5, 121.5},
		2015: {126.5, 35.6, 50.7, 239.5, 71.5, 168.1},
	}
	rows := [][]string{}
	for _, y := range r.years() {
		v := r.run(y).VolumeStats
		p := paper[y]
		rows = append(rows, []string{itoa(y),
			f1(p[0]), f1(v.MedianAll), f1(p[1]), f1(v.MedianCell), f1(p[2]), f1(v.MedianWiFi),
			f1(p[3]), f1(v.MeanAll), f1(p[4]), f1(v.MeanCell), f1(p[5]), f1(v.MeanWiFi),
		})
	}
	r.table([]string{"year",
		"medAll(p)", "medAll", "medCell(p)", "medCell", "medWiFi(p)", "medWiFi",
		"meanAll(p)", "meanAll", "meanCell(p)", "meanCell", "meanWiFi(p)", "meanWiFi"}, rows)
	if g, err := r.st.Growth(); err == nil {
		r.table([]string{"AGR", "paper", "measured"}, [][]string{
			{"median all", "48%", pct(g.AGRMedianAll)},
			{"median cell", "35%", pct(g.AGRMedianCell)},
			{"median WiFi", "134%", pct(g.AGRMedianWiFi)},
			{"mean all", "53%", pct(g.AGRMeanAll)},
			{"mean cell", "30%", pct(g.AGRMeanCell)},
			{"mean WiFi", "66%", pct(g.AGRMeanWiFi)},
		})
	}
}

func (r *reporter) fig6to8() {
	r.pf("## Figs. 6-8 — WiFi-traffic ratio and WiFi-user ratio\n\n```\n")
	for _, y := range []int{2013, 2015} {
		if run := r.run(y); run != nil {
			render.WeekCurve(r.w, fmt.Sprintf("%d traffic ratio", y), run.Ratios.All.TrafficRatio, "")
			render.WeekCurve(r.w, fmt.Sprintf("%d user ratio", y), run.Ratios.All.UserRatio, "")
		}
	}
	render.WeekAxis(r.w)
	r.pf("```\n\n")
	rows := [][]string{}
	paper := map[string][2]string{
		"mean traffic ratio": {"0.58", "0.71"},
		"mean user ratio":    {"0.32", "0.48"},
		"heavy traffic":      {"0.73", "0.89"},
		"light traffic":      {"0.42", "0.52"},
		"heavy user (mean)":  {"0.51", "0.68"},
	}
	get := func(y int) *analysis.WiFiRatiosResult {
		if run := r.run(y); run != nil {
			return &run.Ratios
		}
		return nil
	}
	if a, b := get(2013), get(2015); a != nil && b != nil {
		rows = append(rows,
			[]string{"mean traffic ratio", paper["mean traffic ratio"][0], f2(a.All.MeanTrafficRatio), paper["mean traffic ratio"][1], f2(b.All.MeanTrafficRatio)},
			[]string{"mean user ratio", paper["mean user ratio"][0], f2(a.All.MeanUserRatio), paper["mean user ratio"][1], f2(b.All.MeanUserRatio)},
			[]string{"heavy traffic ratio", paper["heavy traffic"][0], f2(a.Heavy.MeanTrafficRatio), paper["heavy traffic"][1], f2(b.Heavy.MeanTrafficRatio)},
			[]string{"light traffic ratio", paper["light traffic"][0], f2(a.Light.MeanTrafficRatio), paper["light traffic"][1], f2(b.Light.MeanTrafficRatio)},
			[]string{"heavy user ratio", paper["heavy user (mean)"][0], f2(a.Heavy.MeanUserRatio), paper["heavy user (mean)"][1], f2(b.Heavy.MeanUserRatio)},
		)
		r.table([]string{"quantity", "2013 paper", "2013 meas", "2015 paper", "2015 meas"}, rows)
	}
}

func (r *reporter) fig9() {
	r.pf("## Fig. 9 — Interface state by device OS\n\n")
	rows := [][]string{}
	paperOff := map[int]string{2013: "~50%", 2014: "~45%", 2015: "~40%"}
	for _, y := range r.years() {
		is := r.run(y).IfaceState
		rows = append(rows, []string{itoa(y),
			paperOff[y], pct(is.MeanAndroidOffDaytime),
			"~25%", pct(is.MeanAndroidAvailableDaytime),
			pct(is.MeanAndroidUser), pct(is.MeanIOSUser),
		})
	}
	r.table([]string{"year", "And off paper", "And off meas", "And avail paper", "And avail meas", "And user", "iOS user"}, rows)
	r.pf("Expected: WiFi-off share falls 50%%→40%% across years; WiFi-available stays\nnear 25%%; iOS connects ~30%% more than Android.\n\n")
}

func (r *reporter) table4() {
	r.pf("## Table 4 — Estimated APs (counts scale with panel)\n\n")
	paper := map[int][5]int{
		2013: {1139, 5041, 545, 166, 6725},
		2014: {1223, 9302, 673, 168, 11198},
		2015: {1289, 10481, 664, 166, 12434},
	}
	scale := r.st.Opts.Scale
	rows := [][]string{}
	for _, y := range r.years() {
		c := r.run(y).Census
		p := paper[y]
		rows = append(rows, []string{itoa(y),
			itoa(p[0]), itoa(int(float64(c.Home) / scale)),
			itoa(p[1]), itoa(int(float64(c.Public) / scale)),
			itoa(p[2]), itoa(int(float64(c.Other) / scale)),
			itoa(p[3]), itoa(int(float64(c.Office) / scale)),
		})
	}
	r.table([]string{"year", "home(p)", "home", "public(p)", "public", "other(p)", "other", "office(p)", "office"}, rows)
	r.pf("(measured counts rescaled by 1/scale for comparability)\n\n")
}

func (r *reporter) fig10() {
	r.pf("## Fig. 10 — AP density per 5 km cell\n\n")
	for _, y := range []int{2013, 2015} {
		run := r.run(y)
		if run == nil {
			continue
		}
		r.pf("### %d public APs\n\n```\n", y)
		render.HeatMap(r.w, run.Density.Public)
		r.pf("```\n\n")
	}
	rows := [][]string{}
	if a, b := r.run(2013), r.run(2015); a != nil && b != nil {
		rows = append(rows,
			[]string{"cells with >=1 public AP", "229 → 265", fmt.Sprintf("%d → %d", a.Density.PublicCellsAny, b.Density.PublicCellsAny)},
			[]string{"cells with >100 public APs", "10 → 23", fmt.Sprintf("%d → %d", a.Density.PublicCells100, b.Density.PublicCells100)},
		)
		r.table([]string{"quantity", "paper", "measured"}, rows)
	}
	r.pf("Home networks disperse across residential areas; public density concentrates downtown.\n\n")
}

func (r *reporter) fig11() {
	r.pf("## Fig. 11 — WiFi traffic by location class\n\n```\n")
	for _, y := range []int{2013, 2015} {
		run := r.run(y)
		if run == nil {
			continue
		}
		render.WeekCurve(r.w, fmt.Sprintf("%d home RX", y), run.Location.RXMbps[analysis.APHome], "Mbps")
		render.WeekCurve(r.w, fmt.Sprintf("%d public RX", y), run.Location.RXMbps[analysis.APPublic], "Mbps")
		render.WeekCurve(r.w, fmt.Sprintf("%d office RX", y), run.Location.RXMbps[analysis.APOffice], "Mbps")
	}
	render.WeekAxis(r.w)
	r.pf("```\n\n")
	rows := [][]string{}
	for _, y := range r.years() {
		l := r.run(y).Location
		rows = append(rows, []string{itoa(y),
			pct(l.Share[analysis.APHome]), pct(l.Share[analysis.APPublic]), pct(l.Share[analysis.APOffice])})
	}
	r.table([]string{"year", "home share (paper ~95%)", "public", "office"}, rows)
}

func (r *reporter) fig12table5() {
	r.pf("## Fig. 12 / Table 5 — Associated networks per device-day\n\n")
	rows := [][]string{}
	paperMulti := map[int]string{2013: "~30%", 2014: "~35%", 2015: ">40%"}
	for _, y := range r.years() {
		a := r.run(y).APsPerDay
		rows = append(rows, []string{itoa(y),
			pct(a.CountShares[0][1]), pct(a.CountShares[0][2]), pct(a.CountShares[0][3]), pct(a.CountShares[0][4]),
			paperMulti[y], pct(a.MultiAPShare), itoa(a.MaxNetworks)})
	}
	r.table([]string{"year", "1 AP", "2 APs", "3 APs", "4+", "multi paper", "multi meas", "max"}, rows)

	r.pf("Top HPO compositions (H=home, P=public, O=other; paper 2015: 100=46.4%%, 101=16.5%%, 001=9.2%%, 110=9.0%%):\n\n")
	if run := r.run(2015); run != nil {
		top := run.APsPerDay.TopBreakdown()
		if len(top) > 8 {
			top = top[:8]
		}
		rows := [][]string{}
		for _, t := range top {
			rows = append(rows, []string{fmt.Sprintf("%d%d%d", t.HPO.H, t.HPO.P, t.HPO.O), pct(t.Share)})
		}
		r.table([]string{"HPO", "share 2015"}, rows)
	}
}

func (r *reporter) fig13() {
	r.pf("## Fig. 13 — WiFi association duration CCDF\n\n```\n")
	for _, y := range r.years() {
		d := r.run(y).Durations
		fmt.Fprintf(r.w, "%d p90: home %.1f h (paper ~12), office %.1f h (paper ~8), public %.2f h (paper ~1)\n",
			y, d.P90Hours[analysis.APHome], d.P90Hours[analysis.APOffice], d.P90Hours[analysis.APPublic])
	}
	if run := r.run(2015); run != nil {
		d := run.Durations
		render.CCDFLogLog(r.w, "2015 home", d.CCDF[analysis.APHome], 0.1, 100, "h")
		render.CCDFLogLog(r.w, "2015 office", d.CCDF[analysis.APOffice], 0.1, 100, "h")
		render.CCDFLogLog(r.w, "2015 public", d.CCDF[analysis.APPublic], 0.1, 100, "h")
	}
	r.pf("```\n\nExpected: long-tailed with cutoffs; stable across years.\n\n")
}

func (r *reporter) fig14() {
	r.pf("## Fig. 14 — 5 GHz share of associated APs\n\n")
	rows := [][]string{}
	paper := map[int][3]string{
		2013: {"<10%", "~10%", "~20%"},
		2014: {"~12%", "~12%", "~35%"},
		2015: {"<20%", "<20%", ">50%"},
	}
	for _, y := range r.years() {
		b := r.run(y).BandShare
		p := paper[y]
		rows = append(rows, []string{itoa(y),
			p[0], pct(b.Home), p[1], pct(b.Office), p[2], pct(b.Public)})
	}
	r.table([]string{"year", "home(p)", "home", "office(p)", "office", "public(p)", "public"}, rows)
}

func (r *reporter) fig15() {
	r.pf("## Fig. 15 — RSSI of associated APs (2.4 GHz, 2015)\n\n")
	run := r.run(2015)
	if run == nil {
		return
	}
	rows := [][]string{
		{"mean home RSSI", "-54 dBm", fmt.Sprintf("%.1f dBm", run.RSSI.MeanHome)},
		{"mean public RSSI", "~-60 dBm", fmt.Sprintf("%.1f dBm", run.RSSI.MeanPub)},
		{"home below -70 dBm", "3%", pct(run.RSSI.WeakFracHome)},
		{"public below -70 dBm", "12%", pct(run.RSSI.WeakFracPub)},
	}
	r.table([]string{"quantity", "paper", "measured"}, rows)
}

func (r *reporter) fig16() {
	r.pf("## Fig. 16 — Associated 2.4 GHz channels\n\n")
	for _, y := range []int{2013, 2015} {
		run := r.run(y)
		if run == nil {
			continue
		}
		home := make([]float64, 13)
		pub := make([]float64, 13)
		for ch := 1; ch <= 13; ch++ {
			home[ch-1] = run.Channels.Home[ch]
			pub[ch-1] = run.Channels.Public[ch]
		}
		r.pf("```\n%d home   ch1-13 |%s|  ch1 mass %s\n", y, render.Sparkline(home), pct(run.Channels.Ch1Home))
		r.pf("%d public ch1-13 |%s|  1/6/11 mass %s\n```\n", y, render.Sparkline(pub), pct(run.Channels.NonOverlapPub))
	}
	r.pf("\nExpected: public concentrated on 1/6/11; home channel 1 mass shrinks 2013→2015.\n\n")
}

func (r *reporter) fig17() {
	r.pf("## Fig. 17 — Detected public APs per WiFi-available interval (2015)\n\n")
	run := r.run(2015)
	if run == nil {
		return
	}
	pa := run.PublicAvail
	rows := [][]string{
		{"intervals seeing <10 2.4 GHz APs", "~90%", pct(pa.Frac24Under10)},
		{"devices ever seeing 5 GHz", "30%", pct(pa.Dev5AnyFrac)},
		{"devices ever seeing strong 5 GHz", "10%", pct(pa.Dev5StrongFrac)},
		{"offloadable cellular traffic", "15-20%", pct(pa.OffloadableFrac)},
		{"devices with strong public opportunity", "60%", pct(pa.StrongOpportunityFrac)},
	}
	if run13 := r.run(2013); run13 != nil {
		rows = append(rows,
			[]string{"2013 devices ever seeing 5 GHz", "10%", pct(run13.PublicAvail.Dev5AnyFrac)},
			[]string{"2013 devices strong 5 GHz", "3%", pct(run13.PublicAvail.Dev5StrongFrac)})
	}
	r.table([]string{"quantity", "paper", "measured"}, rows)
	r.pf("```\n")
	render.CCDFLogLog(r.w, "2.4GHz all", pa.CCDF24All, 1, 100, "APs")
	render.CCDFLogLog(r.w, "2.4GHz strong", pa.CCDF24Strong, 1, 100, "APs")
	render.CCDFLogLog(r.w, "5GHz all", pa.CCDF5All, 1, 100, "APs")
	r.pf("```\n\n")
}

func (r *reporter) tables6and7() {
	r.pf("## Tables 6-7 — Top application categories by scene\n\n")
	for _, y := range r.years() {
		run := r.run(y)
		r.pf("### %d (RX top-5 per scene; paper's top-5 in DESIGN.md calibration table)\n\n", y)
		rows := [][]string{}
		for sc := analysis.AppScene(0); sc < analysis.NumAppScenes; sc++ {
			shares := run.Apps.RX[sc]
			if len(shares) > 5 {
				shares = shares[:5]
			}
			cells := []string{sc.String()}
			for _, s := range shares {
				cells = append(cells, fmt.Sprintf("%s %.1f%%", s.Category, s.Share*100))
			}
			rows = append(rows, cells)
		}
		r.table([]string{"scene", "1st", "2nd", "3rd", "4th", "5th"}, rows)

		rows = rows[:0]
		for sc := analysis.AppScene(0); sc < analysis.NumAppScenes; sc++ {
			shares := run.Apps.TX[sc]
			if len(shares) > 5 {
				shares = shares[:5]
			}
			cells := []string{sc.String() + " TX"}
			for _, s := range shares {
				cells = append(cells, fmt.Sprintf("%s %.1f%%", s.Category, s.Share*100))
			}
			rows = append(rows, cells)
		}
		r.table([]string{"scene", "1st", "2nd", "3rd", "4th", "5th"}, rows)
	}
	if run := r.run(2015); run != nil {
		r.pf("### 2015 light users only (RX; §3.6: video drops out of the top five)\n\n")
		rows := [][]string{}
		for sc := analysis.AppScene(0); sc < analysis.NumAppScenes; sc++ {
			shares := run.Apps.RXLight[sc]
			if len(shares) > 5 {
				shares = shares[:5]
			}
			cells := []string{sc.String()}
			for _, cs := range shares {
				cells = append(cells, fmt.Sprintf("%s %.1f%%", cs.Category, cs.Share*100))
			}
			rows = append(rows, cells)
		}
		r.table([]string{"scene", "1st", "2nd", "3rd", "4th", "5th"}, rows)
	}
	r.pf("Expected: browser dominant on cellular; video rises on WiFi to ~25-30%% RX by\n2014-15; productivity (online storage) leads WiFi-home TX; for light users video\ndrops out of the top five.\n\n")
}

func (r *reporter) fig18() {
	r.pf("## Fig. 18 — iOS 8.2 update timing (2015)\n\n")
	run := r.run(2015)
	if run == nil || run.Update == nil {
		return
	}
	u := run.Update
	rows := [][]string{
		{"iPhones updated in window", "58%", pct(u.UpdatedFrac)},
		{"updated on day one", "10%", pct(u.FirstDayFrac)},
		{"updated within four days", "~50%", pct(u.FirstFourDaysFrac)},
		{"no-home-AP users updated", "14%", pct(u.UpdatedNoHomeFrac)},
		{"median delay gap (no-home - home)", "3.5 days", fmt.Sprintf("%.1f days", u.MedianDelayGapDays)},
		{"no-home updates via public / office", "11 / 2 (of 19)", fmt.Sprintf("%d / %d (of %d)",
			u.ViaClassNoHome[analysis.APPublic], u.ViaClassNoHome[analysis.APOffice], u.UpdatedNoHome)},
	}
	r.table([]string{"quantity", "paper", "measured"}, rows)
	if len(u.DayPDF) > 0 {
		r.pf("```\nupdates per day since release |%s|\n```\n\n", render.Sparkline(u.DayPDF))
	}
}

func (r *reporter) fig19() {
	r.pf("## Fig. 19 — Soft bandwidth cap effect\n\n")
	rows := [][]string{}
	paperFrac := map[int]string{2013: "0.5%", 2014: "0.8%", 2015: "1.4%"}
	paperGap := map[int]string{2013: "-", 2014: "0.29", 2015: "0.15"}
	for _, y := range r.years() {
		c := r.run(y).CapEffect
		rows = append(rows, []string{itoa(y),
			paperFrac[y], pct(c.CappedUserFrac),
			paperGap[y], f2(c.MedianGap),
			pct(c.HalvedFracCapped), pct(c.HalvedFracOther),
			pct(c.CappedNoHomeAPFrac),
		})
	}
	r.table([]string{"year", "capped(p)", "capped users", "gap(p)", "median gap", "capped<half", "other<half", "capped w/o home AP (p 65%)"}, rows)
}

func (r *reporter) table8() {
	r.pf("## Table 8 — Survey: associated WiFi APs by location\n\n")
	paper := map[int][3]float64{2013: {70.4, 31.6, 44.9}, 2014: {72.9, 25.6, 47.9}, 2015: {78.2, 28.0, 53.6}}
	rows := [][]string{}
	for _, y := range r.years() {
		sv := r.run(y).Survey
		if sv == nil {
			continue
		}
		p := paper[y]
		rows = append(rows, []string{itoa(y),
			f1(p[0]), f1(sv.AssocYes[survey.LocHome]),
			f1(p[1]), f1(sv.AssocYes[survey.LocOffice]),
			f1(p[2]), f1(sv.AssocYes[survey.LocPublic]),
		})
	}
	r.table([]string{"year", "home yes(p)", "home yes", "office yes(p)", "office yes", "public yes(p)", "public yes"}, rows)
}

func (r *reporter) table9() {
	r.pf("## Table 9 — Survey: reasons for WiFi unavailability (2015, %% of 'no')\n\n")
	run := r.run(2015)
	if run == nil || run.Survey == nil {
		return
	}
	sv := run.Survey
	rows := [][]string{}
	for reason := survey.Reason(0); reason < survey.NumReasons; reason++ {
		row := []string{reason.String()}
		for loc := survey.Location(0); loc < survey.NumLocations; loc++ {
			v := sv.ReasonPct[loc][reason]
			if v < 0 {
				row = append(row, "NA")
			} else {
				row = append(row, f1(v))
			}
		}
		rows = append(rows, row)
	}
	r.table([]string{"reason", "home", "office", "public"}, rows)
	r.pf("Expected: 'no available APs' leads for offices (BYOD rare); security concern\nhighest for public; battery concern declines across years.\n\n")
}

func (r *reporter) implications() {
	r.pf("## §4.1 — Implications arithmetic\n\n")
	im, err := r.st.Implications()
	if err != nil {
		r.pf("(needs the 2015 campaign: %v)\n", err)
		return
	}
	rows := [][]string{
		{"WiFi : cellular median ratio", "1.4 : 1", f2(im.WiFiToCellRatio) + " : 1"},
		{"WiFi share of smartphone traffic", "58%", pct(im.SmartphoneWiFiShare)},
		{"smartphone WiFi share of RBB volume", "28%", pct(im.OffloadShareOfRBB)},
		{"one smartphone's share of home broadband", "12%", pct(im.PerHomeShare)},
	}
	r.table([]string{"quantity", "paper", "measured"}, rows)
}

func (r *reporter) extensions() {
	r.pf("## Extensions beyond the paper\n\n")
	r.pf("### Channel co-location pressure (§3.4.5 quantified)\n\n")
	rows := [][]string{}
	for _, y := range r.years() {
		ifr := r.run(y).Interfere
		rows = append(rows, []string{itoa(y),
			pct(ifr.PairFrac[analysis.APHome]), pct(ifr.PairFrac[analysis.APPublic]),
			f1(ifr.MeanInterferers[analysis.APHome]), f1(ifr.MeanInterferers[analysis.APPublic]),
			itoa(ifr.MultiESSIDSites),
		})
	}
	r.table([]string{"year", "home pair-interf", "public pair-interf",
		"home mean interferers", "public mean interferers", "multi-ESSID sites"}, rows)
	r.pf("Same-cell 2.4 GHz pairs on interfering channels: an engineered 1/6/11 plan\n")
	r.pf("floors near 33%%; the home channel-1 pileup of 2013 runs higher and relaxes by\n")
	r.pf("2015. Multi-ESSID sites are the §4.3 shared-infrastructure APs.\n\n")

	r.pf("### Battery telemetry (context for Table 9's battery concern)\n\n")
	rows = rows[:0]
	for _, y := range r.years() {
		bt := r.run(y).Battery
		rows = append(rows, []string{itoa(y),
			f1(bt.MeanAssociated), f1(bt.MeanCellular), pct(bt.LowBatteryFrac)})
	}
	r.table([]string{"year", "mean level on WiFi", "mean level on cellular", "intervals <20%"}, rows)

	r.pf("### WiFi-user ratio by carrier (the §3.3.4 side claim)\n\n")
	rows = rows[:0]
	for _, y := range r.years() {
		cr := r.run(y).Carriers
		rows = append(rows, []string{itoa(y),
			pct(cr.Ratio[1][0]), pct(cr.Ratio[1][1]), pct(cr.Ratio[1][2]), pct(cr.MaxSpreadIOS)})
	}
	r.table([]string{"year", "iOS docomo", "iOS au", "iOS softbank", "max spread"}, rows)
	r.pf("Paper: \"no difference in the WiFi-user ratios among three cellular carriers\n")
	r.pf("providing iPhones\" — the spread should stay within sampling noise.\n\n")
}
