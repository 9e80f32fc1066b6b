// Command report runs the full three-campaign study and writes the
// paper-versus-measured experiment report (the generator behind
// EXPERIMENTS.md).
//
// Usage:
//
//	report -scale 0.25 -seed 1 -o EXPERIMENTS.md
package main

import (
	"bufio"
	"flag"
	"log"
	"os"

	"smartusage/internal/core"
	"smartusage/internal/obs"
	"smartusage/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	var (
		scale      = flag.Float64("scale", 0.25, "panel scale (1.0 = paper size)")
		seed       = flag.Int64("seed", 1, "random seed")
		out        = flag.String("o", "", "output file (default stdout)")
		traceDir   = flag.String("tracedir", "", "spool traces to this directory instead of memory")
		workers    = flag.Int("workers", 0, "simulation workers (0 = sequential, -1 = all cores)")
		anaWorkers = flag.Int("analysis-workers", 0, "analysis workers (0 = one, -1 = all cores)")
		sketchMode = flag.Bool("sketch", false, "bounded-memory sketch analyzers (~1% quantile error)")
		traceOut   = flag.String("trace-out", "", "write per-stage spans (simulate, prepass, shards, merges) as Chrome trace JSONL to this file")
	)
	flag.Parse()

	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		tracer = obs.NewTracer(f)
		defer tracer.Close()
	}

	st, err := core.RunStudy(core.Options{
		Scale: *scale, Seed: *seed, TraceDir: *traceDir,
		Workers: *workers, AnalysisWorkers: *anaWorkers,
		SketchMode: *sketchMode,
		Tracer:     tracer,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			// The close error is the last chance to learn the report never
			// reached the disk.
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = bufio.NewWriter(f)
	}
	if err := report.Write(w, st); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
