// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON benchmark manifest: one object keyed by
// "<package>.<Benchmark>" mapping to ns/op, B/op, and allocs/op, plus a
// "_machine" key recording the machine the run came from. CI runs it on
// its one-iteration benchmark pass (make bench-diff) and publishes the
// result as an artifact, so the perf trajectory of a branch is one download
// away instead of buried in a log.
//
// It exits non-zero, writing nothing, when the output reports a failure (a
// failed benchmark or a package that did not build), so a manifest never
// lacks a key unnoticed.
//
// With -diff it additionally compares the run against a committed manifest
// (benchstat-style old/new/delta table) and exits non-zero when any metric
// regresses beyond its tolerance, which is how CI gates performance: loose
// on wall-clock (+50%, noisy at -benchtime=1x on shared runners, and not
// judged at all below 1 ms), tight on bytes/op and allocs/op (+10% plus a
// small slack; deterministic). It prints the anchor's machine and this
// run's first, and says when they differ, without gating on it.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem ./... | benchjson -o BENCH_8.json
//	go test -run '^$' -bench . -benchtime=1x -benchmem ./... | benchjson -diff BENCH_8.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "output file (default stdout; suppressed in -diff mode unless set)")
	diffPath := flag.String("diff", "", "baseline manifest to compare against; regressions exit 1")
	flag.Parse()

	results, machine, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin (did the bench pass run with -bench?)")
	}
	machine.NumCPU, machine.Go = runtime.NumCPU(), runtime.Version()
	b := marshal(machine, results)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	} else if *diffPath == "" {
		if _, err := os.Stdout.Write(b); err != nil {
			log.Fatal(err)
		}
	}

	if *diffPath != "" {
		old, anchor, err := loadManifest(*diffPath)
		if err != nil {
			log.Fatal(err)
		}
		report, regs := diff(old, results)
		fmt.Print(machineNote(anchor, machine), report)
		if len(regs) > 0 {
			log.Fatalf("%d metric(s) regressed beyond tolerance vs %s", len(regs), *diffPath)
		}
	}
	log.Printf("%d benchmarks", len(results))
}
