// Command tiermerge unions the per-replica trace spools of a multi-collector
// tier, or the one spool of a single collectd, into one deterministic,
// exactly-once trace file:
//
//	tiermerge -o merged.trace /var/spool/replica0 /var/spool/replica1 ...
//	tiermerge -o collected.trace spool
//
// Cross-replica duplicates — the batches an agent retried against a failover
// target after their first replica died — are absorbed; intra-replica
// duplicates and payload conflicts abort with a non-zero exit, because they
// mean a replica (or the tier) violated exactly-once. The output is sorted
// by (device, time), so any enumeration order of the spool directories
// produces the identical file. Feed it to cmd/analyze.
//
// The merge is an external sort: it holds one 8 MiB chunk of records in
// memory and spills sorted runs into a scratch directory under TMPDIR, which
// needs free space of about twice the replica spools' combined size. The
// summary line reports the runs and the bytes spilled.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"smartusage/internal/tiermerge"
	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tiermerge: ")
	var (
		out   = flag.String("o", "merged.trace", "output trace file")
		quiet = flag.Bool("q", false, "suppress the merge summary")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tiermerge [-o merged.trace] replica-spool-dir...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	w := trace.NewWriter(f)
	st, err := tiermerge.MergeDirs(dirs, w.Write)
	if err != nil {
		os.Remove(*out)
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		log.Printf("%d replicas, %d segments: %d samples read, %d unique written to %s (%d failover duplicates absorbed; %d sorted runs, %d bytes spilled)",
			st.Replicas, st.Segments, st.Read, st.Unique, *out, st.FailoverDups, st.Runs, st.SpillBytes)
	}
}
