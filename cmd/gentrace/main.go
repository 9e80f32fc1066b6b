// Command gentrace simulates one measurement campaign and writes the
// resulting sample stream as a binary trace file; cmd/traceconv converts it
// to JSON Lines.
//
// Usage:
//
//	gentrace -year 2015 -scale 0.25 -seed 1 -out campaign-2015.trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"smartusage/internal/config"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gentrace: ")
	var (
		year  = flag.Int("year", 2015, "campaign year (2013, 2014, 2015)")
		scale = flag.Float64("scale", 0.25, "panel scale (1.0 = paper's ~1700 users)")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("out", "", "output path (default campaign-<year>.trace)")
	)
	flag.Parse()

	cfg, err := config.ForYear(*year, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("campaign-%d.trace", *year)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := trace.NewWriter(f)
	if err := sm.Run(w.Write); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d samples from %d users to %s", w.Count(), len(sm.Panel.Users), path)
}
