package main

import (
	"io"
	"os"
	"testing"
)

// smokeScale shrinks each workload until a round takes well under a
// second, keeping enough uploads and sessions that every reported
// percentile has ten samples beyond it.
var smokeScale = map[string]float64{
	"pipeline":     0.02,
	"ingest-daily": 0.08,
	"report-full":  0.01,
	"sketch-full":  0.01,
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			scale, ok := smokeScale[w.name]
			if !ok {
				t.Fatalf("no smoke scale for %s", w.name)
			}
			rep, err := bench(options{workload: w.name, seed: 5, scale: scale, trace: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("failed %d of %d: %q", rep.failed, rep.attempted, rep.failures)
			}
			if rep.meta.Rounds != minSetups || rep.meta.TimedRounds != 1 {
				t.Errorf("%d set-ups and %d timed rounds, want %d and 1", rep.meta.Rounds, rep.meta.TimedRounds, minSetups)
			}
			declared := map[string]bool{}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				declared[d.name] = true
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("declared metric %s not measured", d.name)
				}
			}
			for name := range rep.metrics {
				if !declared[name] {
					t.Errorf("metric %s is not declared", name)
				}
			}
			for _, d := range endToEnd {
				if rep.metrics[d.name] <= 0 {
					t.Errorf("end-to-end %s = %g, want > 0", d.name, rep.metrics[d.name])
				}
			}
			if c := rep.metrics["bench.span_coverage_frac"]; c < 0.95 {
				t.Errorf("spans cover %.3f of the timed part, want >= 0.95", c)
			}
		})
	}
}

// At paper scale and seed 1, report-full renders the committed
// EXPERIMENTS.md (make experiments-full's output) byte for byte.
func TestReportFullReproducesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three campaigns at paper scale")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the repository root, which holds EXPERIMENTS.md
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	rep, err := bench(options{workload: "report-full", seed: 1, scale: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("failed %d of %d: %q", rep.failed, rep.attempted, rep.failures)
	}
}
