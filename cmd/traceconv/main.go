// Command traceconv converts trace files between the binary and JSON Lines
// formats, validating every sample on the way through. The direction
// follows from the input's first bytes: a binary trace (the SMTR1 magic)
// becomes JSON Lines, JSON Lines becomes a binary trace.
//
// The output is written to a temporary file in -out's directory and
// renamed to -out only once the whole input has converted, so a failed
// conversion leaves no partial -out and an existing one intact. An -out
// that names the input file, under any spelling or through a hard link, is
// refused.
//
// Usage:
//
//	traceconv -in campaign.trace -out campaign.jsonl
//	traceconv -in campaign.jsonl -out campaign.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceconv: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args and converts -in into -out.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("traceconv", flag.ExitOnError)
	var (
		in  = fs.String("in", "", "input trace file")
		out = fs.String("out", "", "output trace file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("usage: traceconv -in <file> -out <file>")
	}

	inF, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	inInfo, err := inF.Stat()
	if err != nil {
		return err
	}
	if outInfo, err := os.Stat(*out); err == nil && os.SameFile(inInfo, outInfo) {
		return fmt.Errorf("-out %s is the input file %s", *out, *in)
	}
	read, from, err := trace.Sniff(inF)
	if err != nil {
		return err
	}

	tmp, err := os.CreateTemp(filepath.Dir(*out), filepath.Base(*out)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	n, to, err := convert(read, from, tmp)
	if err = errors.Join(err, tmp.Chmod(0o644), tmp.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), *out); err != nil {
		return err
	}
	log.Printf("converted %d samples (%s → %s)", n, from, to)
	return nil
}

// convert validates every sample read yields and writes it to w in the
// other format. It returns the sample count and the format written.
func convert(read func(func(*trace.Sample) error) error, from string, w io.Writer) (int, string, error) {
	var write func(*trace.Sample) error
	var flush func() error
	to := "binary"
	if from == "binary" {
		jw := trace.NewJSONLWriter(w)
		write, flush, to = jw.Write, jw.Flush, "jsonl"
	} else {
		bw := trace.NewWriter(w)
		write, flush = bw.Write, bw.Flush
	}
	n := 0
	err := read(func(s *trace.Sample) error {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sample %d: %w", n+1, err)
		}
		n++
		return write(s)
	})
	if err != nil {
		return n, to, err
	}
	return n, to, flush()
}
