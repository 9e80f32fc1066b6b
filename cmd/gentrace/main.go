// Command gentrace simulates one measurement campaign and writes the
// resulting sample stream as a trace file (binary by default, JSON Lines
// with -format jsonl).
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
		year   = flag.Int("year", 2015, "campaign year (2013, 2014, 2015)")
		scale  = flag.Float64("scale", 0.25, "panel scale (1.0 = paper's ~1700 users)")
		seed   = flag.Int64("seed", 1, "random seed")
		out    = flag.String("out", "", "output path (default campaign-<year>.trace)")
		format = flag.String("format", "binary", "output format: binary or jsonl")
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
		if *format == "jsonl" {
			path = fmt.Sprintf("campaign-%d.jsonl", *year)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}

	var sink sim.Sink
	var flush func() error
	switch *format {
	case "binary":
		w := trace.NewWriter(f)
		sink, flush = w.Write, w.Flush
	case "jsonl":
		w := trace.NewJSONLWriter(f)
		sink, flush = w.Write, w.Flush
	default:
		log.Fatalf("unknown format %q (want binary or jsonl)", *format)
	}

	n := 0
	if err := sm.Run(func(s *trace.Sample) error {
		n++
		return sink(s)
	}); err != nil {
		log.Fatal(err)
	}
	if err := flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d samples from %d users to %s", n, len(sm.Panel.Users), path)
}
