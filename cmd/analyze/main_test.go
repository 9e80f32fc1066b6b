package main

import (
	"sort"
	"strings"
	"testing"

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
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
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
