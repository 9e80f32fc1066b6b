// Pipeline: the full measurement system end to end, in one process — a
// collection server, a fleet of device agents uploading over real TCP
// (with injected connection failures to exercise the cache-and-retry
// path), and the analysis pipeline run over what the collector actually
// received. This is the §2 architecture: device sampler → upload →
// central server → analysis.
//
//	go run ./examples/pipeline [-scale 0.05] [-failrate 0.2]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/analysis"
	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/render"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.05, "panel scale")
	seed := flag.Int64("seed", 1, "random seed")
	failrate := flag.Float64("failrate", 0.2, "injected dial-failure probability")
	flag.Parse()

	// 1. The collection server, spooling into memory.
	var mu sync.Mutex
	var collected []trace.Sample
	srv, err := collector.New(collector.Config{
		Addr:  "127.0.0.1:0",
		Token: "panel-2015",
		Sink: func(s *trace.Sample) error {
			mu.Lock()
			collected = append(collected, *s.Clone())
			mu.Unlock()
			return nil
		},
		Logf: func(string, ...any) {},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ctx)
	}()
	addr := srv.Addr().String()
	fmt.Printf("collector listening on %s\n", addr)

	// 2. The simulated campaign, streamed through per-device agents over
	// a flaky network.
	cfg, err := config.ForYear(2015, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	faults := rand.New(rand.NewSource(*seed * 7))
	dial := func(address string, timeout time.Duration) (net.Conn, error) {
		if faults.Float64() < *failrate {
			return nil, fmt.Errorf("injected dial failure")
		}
		return net.DialTimeout("tcp", address, timeout)
	}
	agents := map[trace.DeviceID]*agent.Agent{}
	err = sm.Run(func(s *trace.Sample) error {
		a := agents[s.Device]
		if a == nil {
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
	if err != nil {
		log.Fatal(err)
	}
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
	cancel()
	<-serveDone

	st := srv.Stats()
	fmt.Printf("agents: %d devices, %d transient flush errors, %d redials\n",
		len(agents), flushErrs, redials)
	fmt.Printf("collector: %d batches (%d duplicate replays dropped), %d samples accepted\n",
		st.Batches.Load(), st.DupBatches.Load(), st.Samples.Load())

	// 3. Analysis over the *collected* dataset — exactly what the paper's
	// backend would have seen.
	mu.Lock()
	dataset := collected
	mu.Unlock()
	run, err := core.AnalyzeCampaign(cfg, sm, analysis.SliceSource(dataset), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalysis of the collected trace (%d samples):\n", len(dataset))
	fmt.Printf("  devices seen: %d, inferred home APs: %d\n",
		run.Overview.Total, run.Census.Home)
	fmt.Printf("  WiFi share of download: %s, median daily volume: %.1f MB\n",
		render.Pct(run.Overview.WiFiShare), run.VolumeStats.MedianAll)
	fmt.Printf("  AP census: %d public, %d other (%d office)\n",
		run.Census.Public, run.Census.Other, run.Census.Office)
}
