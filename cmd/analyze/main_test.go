package main

import (
	"path/filepath"
	"strings"
	"testing"

	"smartusage/internal/config"
	"smartusage/internal/core"
)

// TestExperimentsPrintInBothModes runs every experiment id on one small 2015
// campaign in exact and sketch mode. Both modes must print the same lines,
// and a sketch-mode line may read "(empty)" only where the exact line does.
func TestExperimentsPrintInBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign twice")
	}
	runs := make(map[bool]*core.CampaignRun)
	for _, sketch := range []bool{false, true} {
		r, err := core.RunCampaign(2015, core.Options{Scale: 0.05, Seed: 1, SketchMode: sketch})
		if err != nil {
			t.Fatal(err)
		}
		runs[sketch] = r
	}
	for _, id := range experimentIDs() {
		var exact, sketch strings.Builder
		experiments[id](&exact, runs[false])
		experiments[id](&sketch, runs[true])
		if exact.Len() == 0 {
			t.Errorf("%s: printed nothing", id)
			continue
		}
		el := strings.Split(exact.String(), "\n")
		sl := strings.Split(sketch.String(), "\n")
		if len(el) != len(sl) {
			t.Errorf("%s: sketch mode printed %d lines, exact %d", id, len(sl), len(el))
			continue
		}
		for i := range el {
			if strings.Contains(sl[i], "(empty)") && !strings.Contains(el[i], "(empty)") {
				t.Errorf("%s: sketch mode printed %q where exact printed %q", id, sl[i], el[i])
			}
		}
	}
}

// TestTraceMatchesInMemory runs every experiment id on one small 2015
// campaign twice: simulated in memory, and loaded the way -trace loads it,
// streamed with bounded memory from the campaign's trace spooled to disk.
// Both must print the same lines, except the survey tables: a trace carries
// no simulated world, so they print their omit -trace note.
func TestTraceMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign twice")
	}
	opts := core.Options{Scale: 0.05, Seed: 1, AnalysisWorkers: 2}
	mem, err := load("", 2015, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.ForYear(2015, opts.Scale, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	spool := opts
	spool.TraceDir = t.TempDir()
	if _, err := core.RunWithConfig(cfg, spool); err != nil {
		t.Fatal(err)
	}
	traced, err := load(filepath.Join(spool.TraceDir, "campaign-2015.trace"), 2015, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experimentIDs() {
		var want, got strings.Builder
		experiments[id](&want, mem)
		experiments[id](&got, traced)
		switch id {
		case "table2", "table8", "table9":
			if !strings.Contains(got.String(), "(omit -trace)") {
				t.Errorf("%s: trace run printed %q, want the survey's omit -trace note", id, got.String())
			}
		default:
			if got.String() != want.String() {
				t.Errorf("%s: trace run printed\n%s\nin-memory run printed\n%s", id, got.String(), want.String())
			}
		}
	}
}
