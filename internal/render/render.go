// Package render prints analysis results as text: aligned tables, unicode
// sparkline curves for the hour-of-week figures, ASCII heat maps for the
// density figures, and quantile summaries for distributions. All output is
// plain text suitable for terminals and Markdown code blocks.
package render

import (
	"fmt"
	"io"
	"math"
	"strings"

	"smartusage/internal/analysis"
	"smartusage/internal/stats"
)

// Table writes an aligned text table. Every row must have len(headers)
// cells; shorter rows are padded.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i := 0; i < len(widths) && i < len(row); i++ {
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, width := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", width-len(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i, width := range widths {
		sep[i] = strings.Repeat("-", width)
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// sparkRamp maps normalized values to eight block heights.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a one-line unicode sparkline normalized to
// [0, max]. NaNs render as spaces.
func Sparkline(values []float64) string {
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			b.WriteByte(' ')
			continue
		}
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkRamp)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRamp) {
			idx = len(sparkRamp) - 1
		}
		b.WriteRune(sparkRamp[idx])
	}
	return b.String()
}

// WeekCurve renders a 168-bin hour-of-week curve as a labelled sparkline,
// two hours per character, starting from Saturday to match the paper's
// figures. label is printed left of the curve with the series maximum.
func WeekCurve(w io.Writer, label string, hourOfWeek [168]float64, unit string) error {
	// Rotate so Saturday (weekday 6) leads.
	rotated := make([]float64, 168)
	for i := 0; i < 168; i++ {
		rotated[i] = hourOfWeek[(i+6*24)%168]
	}
	// Downsample 2h per character; report the true hourly peak.
	ds := make([]float64, 84)
	var max float64
	for i := range ds {
		ds[i] = (rotated[2*i] + rotated[2*i+1]) / 2
	}
	for _, v := range rotated {
		if v > max {
			max = v
		}
	}
	_, err := fmt.Fprintf(w, "%-22s |%s| peak %.3g %s\n", label, Sparkline(ds), max, unit)
	return err
}

// WeekAxis prints the day labels aligned under WeekCurve output.
func WeekAxis(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%-22s  %s\n", "", "Sat         Sun         Mon         Tue         Wed         Thu         Fri")
	return err
}

// heatRamp maps densities to characters.
var heatRamp = []byte(" .:-=+*#%@")

// HeatMap renders a grid as an ASCII density map, top row = highest Y,
// using a log scale so sparse cells stay visible.
func HeatMap(w io.Writer, g *stats.Grid) error {
	max := g.Max()
	logMax := math.Log1p(float64(max))
	for y := g.H - 1; y >= 0; y-- {
		line := make([]byte, g.W)
		for x := 0; x < g.W; x++ {
			c := g.At(x, y)
			idx := 0
			if c > 0 && logMax > 0 {
				idx = 1 + int(math.Log1p(float64(c))/logMax*float64(len(heatRamp)-2))
				if idx >= len(heatRamp) {
					idx = len(heatRamp) - 1
				}
			}
			line[x] = heatRamp[idx]
		}
		if _, err := fmt.Fprintf(w, "|%s|\n", line); err != nil {
			return err
		}
	}
	return nil
}

// CCDFLogLog renders a survival curve as a sparkline over log-spaced x
// bins from xmin to xmax, with the y axis also log-scaled (decades down to
// 10^-floor). This is the compact form of the paper's log-log CCDF figures
// (Figs. 13 and 17).
func CCDFLogLog(w io.Writer, label string, d stats.Distribution, xmin, xmax float64, unit string) error {
	if xmin <= 0 || xmax <= xmin {
		return fmt.Errorf("render: CCDFLogLog range [%g, %g]", xmin, xmax)
	}
	const cols = 60
	const decades = 4.0 // y floor at 10^-4
	vals := make([]float64, cols)
	for i := 0; i < cols; i++ {
		x := xmin * math.Pow(xmax/xmin, float64(i)/float64(cols-1))
		y := d.At(x) // CCDF built via stats.CCDF: At returns P[v > x] step
		if len(d.Points) > 0 && x < d.Points[0].X {
			// Below the smallest observation every value survives.
			y = 1
		}
		if y <= 0 {
			vals[i] = 0
			continue
		}
		// Map log10(y) in [-decades, 0] to [0, 1].
		v := 1 + math.Log10(y)/decades
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	_, err := fmt.Fprintf(w, "%-22s |%s| x: %.2g..%.2g %s (log), y: 1..1e-%d (log)\n",
		label, Sparkline(vals), xmin, xmax, unit, int(decades))
	return err
}

// Quantiles prints a labelled quantile summary of a distribution. A
// sketch-store distribution prints the same line as an exact one, its values
// carrying the sketch's ~1% relative error.
func Quantiles(w io.Writer, label string, d *analysis.Dist, unit string) error {
	if d.Count() == 0 {
		_, err := fmt.Fprintf(w, "%s: (empty)\n", label)
		return err
	}
	qs := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ", label)
	for i, q := range qs {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "p%02.0f=%.3g", q*100, d.Quantile(q))
	}
	fmt.Fprintf(&b, " %s (n=%d)", unit, d.Count())
	_, err := fmt.Fprintln(w, b.String())
	return err
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// MBf formats megabytes with one decimal.
func MBf(mb float64) string { return fmt.Sprintf("%.1f", mb) }

// CurveTSV writes an (x, y) curve as tab-separated values for external
// plotting.
func CurveTSV(w io.Writer, pts []stats.Point) error {
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, p.Y); err != nil {
			return err
		}
	}
	return nil
}
