package report_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartusage/internal/core"
	"smartusage/internal/report"
)

func TestWriteFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	st, err := core.RunStudy(core.Options{Scale: 0.06, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := report.Write(&b, st); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Every artifact section must be present.
	sections := []string{
		"## Fig. 1", "## Table 1", "## Table 2", "## Fig. 2", "## Figs. 3-4",
		"## Fig. 5", "## Table 3", "## Figs. 6-8", "## Fig. 9", "## Table 4",
		"## Fig. 10", "## Fig. 11", "## Fig. 12 / Table 5", "## Fig. 13",
		"## Fig. 14", "## Fig. 15", "## Fig. 16", "## Fig. 17",
		"## Tables 6-7", "## Fig. 18", "## Fig. 19", "## Table 8",
		"## Table 9", "## §4.1", "## Extensions beyond the paper",
	}
	for _, sec := range sections {
		if !strings.Contains(out, sec) {
			t.Errorf("report missing section %q", sec)
		}
	}
	// Paper anchor values should be quoted for comparison.
	for _, anchor := range []string{"126.5", "134%", "3.5 days", "11 / 2"} {
		if !strings.Contains(out, anchor) {
			t.Errorf("report missing paper anchor %q", anchor)
		}
	}
	if len(out) < 10_000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// TestWriteSketchReportGolden pins every sketch-mode number in the rendered
// report: TestWriteFullReport's study, run with SketchMode, must reproduce
// testdata/sketch-report.golden byte for byte. Sketch bins are integers that
// do not depend on insertion order, so any change here is a change in what a
// sketch-mode analyzer computes.
func TestWriteSketchReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	st, err := core.RunStudy(core.Options{Scale: 0.06, Seed: 11, SketchMode: true})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := report.Write(&b, st); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sketch-report.golden")
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("sketch report differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("sketch report differs from %s: %d lines, want %d", golden, len(got), len(wantLines))
	}
}

func TestWritePartialStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	// A single-year study must still render without panicking, with the
	// implications section explaining what is missing.
	st, err := core.RunStudy(core.Options{Scale: 0.05, Seed: 2, Years: []int{2014}})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := report.Write(&b, st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "needs the 2015 campaign") {
		t.Error("partial study should note the missing implications input")
	}
	if got := report.SortedYears(st); len(got) != 1 || got[0] != 2014 {
		t.Fatalf("SortedYears %v", got)
	}
}
