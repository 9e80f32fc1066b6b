// Pipeline: the full measurement system end to end, in one process — a
// collector replica with its WAL and spool in a temporary directory, a
// fleet of device agents uploading over real TCP (with injected connection
// failures to exercise the cache-and-retry path), and the analysis pipeline
// run over what the collector actually spooled. This is the §2 architecture: device
// sampler → upload → central server → analysis.
//
//	go run ./examples/pipeline [-scale 0.05] [-failrate 0.2]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/faultnet"
	"smartusage/internal/render"
	"smartusage/internal/sim"
	"smartusage/internal/tiermerge"
	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.05, "panel scale")
	seed := flag.Int64("seed", 1, "random seed")
	failrate := flag.Float64("failrate", 0.2, "injected dial-failure probability")
	flag.Parse()
	// Every failure returns through run, so the temporary spool is removed.
	if err := run(*scale, *seed, *failrate); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64, seed int64, failrate float64) (err error) {
	dir, err := os.MkdirTemp("", "pipeline-example-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg, err := config.ForYear(2015, scale, seed)
	if err != nil {
		return err
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return err
	}

	// 1. The collection server: one collector replica, as cmd/collectd runs.
	spool := filepath.Join(dir, "spool")
	rep, err := collector.StartReplica(collector.ReplicaConfig{
		Server:   collector.Config{Addr: "127.0.0.1:0", Token: "panel-2015", Logf: func(string, ...any) {}},
		SpoolDir: spool,
		WALDir:   filepath.Join(dir, "wal"),
	})
	if err != nil {
		return err
	}
	addr := rep.Server().Addr().String()
	fmt.Printf("collector listening on %s\n", addr)

	// 2. The simulated campaign, streamed through per-device agents over
	// a flaky network.
	dial := faultnet.New(faultnet.Config{Seed: seed * 7, DialRefuse: failrate}).Dial(nil)
	agents := map[trace.DeviceID]*agent.Agent{}
	err = sm.Run(func(s *trace.Sample) error {
		a := agents[s.Device]
		if a == nil {
			var err error
			a, err = agent.New(agent.Config{
				Servers: []string{addr}, Device: s.Device, OS: s.OS,
				Token: "panel-2015", BatchSize: 36, Dial: dial,
			})
			if err != nil {
				return err
			}
			agents[s.Device] = a
		}
		a.Record(s)
		return nil
	})
	// The agents close their connections before the drain, which waits
	// for every connection to end.
	var flushErrs, redials int
	for _, a := range agents {
		for try := 0; try < 50 && a.Pending() > 0; try++ {
			a.Flush()
		}
		if err := a.Close(); err != nil {
			log.Printf("pipeline: agent close: %v", err)
		}
		flushErrs += a.Stats().FlushErrs
		redials += a.Stats().Redials
	}
	if err := errors.Join(err, rep.Drain(context.Background())); err != nil {
		return err
	}

	st := rep.Server().Stats()
	fmt.Printf("agents: %d devices, %d transient flush errors, %d redials\n",
		len(agents), flushErrs, redials)
	fmt.Printf("collector: %d batches (%d duplicate replays dropped), %d samples accepted\n",
		st.Batches.Load(), st.DupBatches.Load(), st.Samples.Load())

	// 3. Analysis over the *collected* dataset — exactly what the paper's
	// backend would have seen — read back from the spool as cmd/tiermerge
	// reads a tier's.
	merged, err := tiermerge.Open([]string{spool})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, merged.Close()) }()
	res, err := core.AnalyzeCampaign(cfg, sm, merged.Source(), core.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("\nanalysis of the collected trace (%d samples):\n", merged.Stats.Unique)
	fmt.Printf("  devices seen: %d, inferred home APs: %d\n",
		res.Overview.Total, res.Census.Home)
	fmt.Printf("  WiFi share of download: %s, median daily volume: %.1f MB\n",
		render.Pct(res.Overview.WiFiShare), res.VolumeStats.MedianAll)
	fmt.Printf("  AP census: %d public, %d other (%d office)\n",
		res.Census.Public, res.Census.Other, res.Census.Office)
	return nil
}
