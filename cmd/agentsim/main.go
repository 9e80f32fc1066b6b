// Command agentsim replays a simulated campaign through real measurement
// agents: every simulated device runs an agent.Agent that uploads its
// samples to a collector over TCP, exercising the full §2 pipeline
// (sampling → batching → upload → cache-and-retry on failure).
//
// Run a collector first (cmd/collectd), then:
//
//	agentsim -servers 127.0.0.1:7020 -year 2015 -scale 0.1 -faults dial=0.05,corrupt=0.01
//
// -faults injects deterministic network failures (see faultnet.ParseSpec
// for the spec grammar) to demonstrate the agent's retry/backoff policy and
// offline cache: every sample still arrives exactly once thanks to frame
// checksums, batch dedup, and the collector's resume bookkeeping.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/config"
	"smartusage/internal/faultnet"
	"smartusage/internal/obs"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("agentsim: ")
	// Every failure returns through run, so the -trace-out file is completed
	// before the process exits.
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args, replays the campaign through the agents and drains
// them. It fails on setup errors, on abandoned samples, and on a trace file
// that could not be completed.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("agentsim", flag.ExitOnError)
	var (
		servers    = fs.String("servers", "127.0.0.1:7020", "comma-separated collector addresses; agents pick a rendezvous primary per device and fail over between them")
		year       = fs.Int("year", 2015, "campaign year")
		scale      = fs.Float64("scale", 0.1, "panel scale")
		seed       = fs.Int64("seed", 1, "random seed")
		token      = fs.String("token", "", "auth token")
		faults     = fs.String("faults", "", "fault spec, e.g. dial=0.1,reset=0.05,stall=0.02,ackloss=0.1,corrupt=0.01")
		attempts   = fs.Int("attempts", 4, "upload attempts per batch within one flush")
		backoff    = fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
		maxBackoff = fs.Duration("max-backoff", 2*time.Second, "retry backoff cap")
		spoolDir   = fs.String("spool-dir", "", "journal each agent's upload queue under this directory (one subdir per device); a re-run resumes abandoned samples")
		traceOut   = fs.String("trace-out", "", "write stage spans (simulate, drain) as Chrome trace JSONL to this file")
		metricsOut = fs.String("metrics-out", "", "write a final Prometheus-text metrics snapshot to this file")
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
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}

	cfg, err := config.ForYear(*year, *scale, *seed)
	if err != nil {
		return err
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return err
	}

	fcfg, err := faultnet.ParseSpec(*faults)
	if err != nil {
		return err
	}
	fcfg.Seed = *seed * 31
	fcfg.Metrics = reg
	inj := faultnet.New(fcfg)
	dial := inj.Dial(nil)

	var addrs []string
	for _, s := range strings.Split(*servers, ",") {
		if s = strings.TrimSpace(s); s != "" {
			addrs = append(addrs, s)
		}
	}

	agents := make(map[trace.DeviceID]*agent.Agent)
	var recorded, flushErrs int
	simSpan := tracer.Start("agentsim:simulate")
	err = sm.Run(func(s *trace.Sample) error {
		a := agents[s.Device]
		if a == nil {
			var err error
			acfg := agent.Config{
				Servers:     addrs,
				Device:      s.Device,
				OS:          s.OS,
				Token:       *token,
				MaxAttempts: *attempts,
				Backoff:     *backoff,
				MaxBackoff:  *maxBackoff,
				Dial:        dial,
				Metrics:     reg,
			}
			if *spoolDir != "" {
				acfg.SpoolDir = filepath.Join(*spoolDir, s.Device.String())
			}
			a, err = agent.New(acfg)
			if err != nil {
				return err
			}
			agents[s.Device] = a
		}
		a.Record(s)
		recorded++
		return nil
	})
	simSpan.End()
	if err != nil {
		return err
	}

	drainSpan := tracer.Start("agentsim:drain")
	var uploaded, dropped, retries, resumed, abandoned, failovers, exhausted int
	for _, a := range agents {
		if err := a.Close(); err != nil {
			flushErrs++
			var ae *agent.AbandonedError
			if errors.As(err, &ae) {
				abandoned += ae.Count
			}
		}
		st := a.Stats()
		uploaded += st.Uploaded
		dropped += st.Dropped
		retries += st.Retries
		resumed += st.Resumed
		failovers += st.Failovers
		exhausted += st.TierExhausted
	}
	drainSpan.End()
	log.Printf("devices=%d recorded=%d resumed=%d uploaded=%d dropped=%d retries=%d close-errors=%d abandoned=%d",
		len(agents), recorded, resumed, uploaded, dropped, retries, flushErrs, abandoned)
	if len(addrs) > 1 {
		log.Printf("tier: %d replicas, failovers=%d tier-exhausted=%d", len(addrs), failovers, exhausted)
	}
	log.Printf("faults: %s", inj.Stats())
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			return err
		}
	}
	if abandoned > 0 {
		fate := "lost"
		if *spoolDir != "" {
			fate = fmt.Sprintf("retained under %s; re-run to resume", *spoolDir)
		}
		return fmt.Errorf("%d samples abandoned (%s)", abandoned, fate)
	}
	return nil
}

// writeMetrics renders a final Prometheus-text snapshot of the registry.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WritePrometheus(f); err != nil {
		f.Close() //smuvet:allow closeerr -- write error is primary; the file is incomplete anyway
		return err
	}
	return f.Close()
}
