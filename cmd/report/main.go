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
	"errors"
	"flag"
	"io"
	"log"
	"os"

	"smartusage/internal/core"
	"smartusage/internal/obs"
	"smartusage/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	// Every failure returns through run, so the -trace-out file is completed
	// before the process exits.
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args, executes the study and writes the report. Its error
// includes the failure to close the report or the trace file, the last
// chance to learn that either never reached the disk.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	var (
		scale      = fs.Float64("scale", 0.25, "panel scale (1.0 = paper size)")
		seed       = fs.Int64("seed", 1, "random seed")
		out        = fs.String("o", "", "output file (default stdout)")
		traceDir   = fs.String("tracedir", "", "keep each campaign's trace here (default: a temp dir the run removes)")
		anaWorkers = fs.Int("analysis-workers", 0, "analysis workers (0 = one, -1 = all cores)")
		sketchMode = fs.Bool("sketch", false, "bounded-memory sketch analyzers (~1% quantile error)")
		traceOut   = fs.String("trace-out", "", "write per-stage spans (simulate, prepass, shards, merges) as Chrome trace JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer(f)
	}
	defer func() { err = errors.Join(err, tracer.Close()) }() // nil-safe

	st, err := core.RunStudy(core.Options{
		Scale: *scale, Seed: *seed, TraceDir: *traceDir,
		AnalysisWorkers: *anaWorkers,
		SketchMode:      *sketchMode,
		Tracer:          tracer,
	})
	if err != nil {
		return err
	}
	if *out == "" {
		return writeReport(os.Stdout, st)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	return errors.Join(writeReport(f, st), f.Close())
}

// writeReport renders the study into w through a buffer.
func writeReport(w io.Writer, st *core.Study) error {
	bw := bufio.NewWriter(w)
	if err := report.Write(bw, st); err != nil {
		return err
	}
	return bw.Flush()
}
