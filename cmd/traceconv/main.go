// Command traceconv converts trace files between the binary and JSON Lines
// formats, validating every sample on the way through. The direction
// follows from the input's first bytes: a binary trace (the SMTR1 magic)
// becomes JSON Lines, JSON Lines becomes a binary trace.
//
// Usage:
//
//	traceconv -in campaign.trace -out campaign.jsonl
//	traceconv -in campaign.jsonl -out campaign.trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceconv: ")
	var (
		in  = flag.String("in", "", "input trace file")
		out = flag.String("out", "", "output trace file")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		log.Fatal("usage: traceconv -in <file> -out <file>")
	}

	inF, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer inF.Close()
	read, from, err := trace.Sniff(inF)
	if err != nil {
		log.Fatal(err)
	}

	outF, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	var write func(*trace.Sample) error
	var flush func() error
	to := "binary"
	if from == "binary" {
		w := trace.NewJSONLWriter(outF)
		write, flush, to = w.Write, w.Flush, "jsonl"
	} else {
		w := trace.NewWriter(outF)
		write, flush = w.Write, w.Flush
	}

	n := 0
	err = read(func(s *trace.Sample) error {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sample %d: %w", n+1, err)
		}
		n++
		return write(s)
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := flush(); err != nil {
		log.Fatal(err)
	}
	if err := outF.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("converted %d samples (%s → %s)", n, from, to)
}
