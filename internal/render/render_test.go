package render

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"smartusage/internal/analysis"
	"smartusage/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	err := Table(&b, []string{"name", "value"}, [][]string{
		{"short", "1"},
		{"a-much-longer-name", "22"},
		{"padded"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator %q", lines[1])
	}
	// The value column must start at the same offset in every row.
	off := strings.Index(lines[0], "value")
	if idx := strings.Index(lines[2], "22"); idx != -1 && idx < off {
		t.Fatalf("misaligned: header value at %d, cell at %d", off, idx)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if utf8.RuneCountInString(s) != 4 {
		t.Fatalf("length %d", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("ramp %q", s)
	}
	if got := Sparkline([]float64{0, 0}); []rune(got)[0] != '▁' {
		t.Fatalf("all-zero sparkline %q", got)
	}
	if got := Sparkline([]float64{math.NaN(), 1}); []rune(got)[0] != ' ' {
		t.Fatalf("NaN rendering %q", got)
	}
}

func TestWeekCurve(t *testing.T) {
	var curve [168]float64
	// Saturday noon (weekday 6) peak.
	curve[6*24+12] = 10
	var b strings.Builder
	if err := WeekCurve(&b, "test", curve, "Mbps"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "peak 10 Mbps") {
		t.Fatalf("curve output %q", out)
	}
	// The rotated curve starts at Saturday, so the peak lands in the first
	// 12 characters (Saturday's half-day).
	bar := out[strings.Index(out, "|")+1 : strings.LastIndex(out, "|")]
	runes := []rune(bar)
	if len(runes) != 84 {
		t.Fatalf("bar length %d", len(runes))
	}
	peakAt := -1
	for i, r := range runes {
		if r == '█' {
			peakAt = i
		}
	}
	if peakAt < 0 || peakAt > 11 {
		t.Fatalf("Saturday peak rendered at position %d", peakAt)
	}
	if err := WeekAxis(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Sat") {
		t.Fatal("axis labels missing")
	}
}

func TestHeatMap(t *testing.T) {
	g := stats.NewGrid(4, 3)
	g.Add(0, 0)
	g.Add(3, 2)
	g.Add(3, 2)
	var b strings.Builder
	if err := HeatMap(&b, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows %d", len(lines))
	}
	// Top row is highest Y; the (3,2) cell is at the end of the first line.
	if lines[0][len(lines[0])-2] == ' ' {
		t.Fatal("hot cell rendered empty")
	}
	if lines[1] != "|    |" {
		t.Fatalf("empty row %q", lines[1])
	}
}

func TestQuantiles(t *testing.T) {
	for _, sketchMode := range []bool{false, true} {
		// Ascending adds leave the exact store sorted, as a final Dist is.
		d := analysis.NewDist(sketchMode)
		for x := 1.0; x <= 10; x++ {
			d.Add(x)
		}
		var b strings.Builder
		if err := Quantiles(&b, "lbl", &d, "MB"); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "n=10") || (!sketchMode && !strings.Contains(out, "p50=5.5")) {
			t.Fatalf("sketch=%v: quantiles %q", sketchMode, out)
		}
		b.Reset()
		empty := analysis.NewDist(sketchMode)
		if err := Quantiles(&b, "empty", &empty, "MB"); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "(empty)") {
			t.Fatalf("sketch=%v: empty rendering missing", sketchMode)
		}
	}
}

func TestPct(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct %q", Pct(0.123))
	}
}

func TestCCDFLogLog(t *testing.T) {
	// Durations heavily concentrated at 1h with a tail to 10h.
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 10}
	d := stats.CCDF(xs)
	var b strings.Builder
	if err := CCDFLogLog(&b, "durations", d, 0.1, 100, "h"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "durations") || !strings.Contains(out, "0.1..1e+02 h") {
		t.Fatalf("labels missing: %q", out)
	}
	// Left of x=1 the survival is 1 (full blocks); right of x=10 it is 0.
	bar := []rune(out[strings.Index(out, "|")+1 : strings.LastIndex(out, "|")])
	if bar[0] != '█' {
		t.Fatalf("survival at xmin should render full: %q", string(bar[:5]))
	}
	if bar[len(bar)-1] != '▁' {
		t.Fatalf("survival beyond max should render empty: %q", string(bar[len(bar)-5:]))
	}
	if err := CCDFLogLog(&b, "bad", d, 0, 10, "h"); err == nil {
		t.Fatal("invalid range accepted")
	}
	if err := CCDFLogLog(&b, "bad", d, 5, 2, "h"); err == nil {
		t.Fatal("inverted range accepted")
	}
}
