// Command collectd runs the central collection server: it accepts
// measurement-agent connections and spools accepted samples to a binary
// trace file. Stop it with SIGINT/SIGTERM for a graceful shutdown — the
// server drains in-flight connections (bounded by -drain-timeout), flushes
// the spool, cuts a final WAL checkpoint, and logs a stats summary. If the
// drain fails — its deadline expires with connections still active, or the
// listener, the final checkpoint or a close fails — collectd exits non-zero.
//
// With -spool-dir, collectd runs one collector.Replica. With -wal-dir set
// too, collection is crash-safe: every accepted batch is written (and
// fsynced per -fsync) to a write-ahead log before it is sinked or acked,
// periodic checkpoints bound the log, and a restart replays the log —
// rebuilding per-device dedup state and any samples the spool had not yet
// made durable — so `kill -9` loses nothing that was acked and double-sinks
// nothing on agent retry. WAL mode requires the rotating -spool-dir sink
// (checkpoints align with sealed spool segments).
//
// Usage:
//
//	collectd -addr :7020 -spool collected.trace -token s3cret
//	collectd -addr :7020 -spool-dir spool/ -wal-dir wal/ -fsync batch
//
// A horizontal tier runs N of these, each with its own -wal-dir/-spool-dir
// and a distinct -replica-id (agents take the full address list and fail
// over between them). While a replica replays its WAL at startup /healthz
// reports 503 "recovering", so failover clients route around it. Per-replica
// spools are unioned afterwards with cmd/tiermerge:
//
//	collectd -addr :7020 -replica-id 0 -replicas 3 -spool-dir spool0/ -wal-dir wal0/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smartusage/internal/collector"
	"smartusage/internal/obs"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("collectd: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:7020", "TCP listen address")
		spool        = flag.String("spool", "collected.trace", "output trace file (single-file mode)")
		spoolDir     = flag.String("spool-dir", "", "rotate trace segments into this directory instead of -spool")
		maxSeg       = flag.Int64("maxseg", 256<<20, "segment size budget for -spool-dir (bytes)")
		token        = flag.String("token", "", "shared auth token (empty disables auth)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline")
		maxFrame     = flag.Int("maxframe", proto.MaxFrameSize, "per-frame payload cap (bytes)")
		maxConns     = flag.Int("maxconns", 256, "concurrent connection cap")
		walDir       = flag.String("wal-dir", "", "write-ahead log directory (enables crash-safe collection; requires -spool-dir)")
		fsync        = flag.String("fsync", "batch", "WAL fsync policy: batch (per accepted batch), interval, or off")
		fsyncEvery   = flag.Duration("fsync-interval", time.Second, "sync period for -fsync interval")
		walSeg       = flag.Int64("wal-seg", 64<<20, "WAL segment rotation size (bytes)")
		ckptEvery    = flag.Duration("checkpoint-interval", time.Minute, "WAL checkpoint (and retention) period")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget; expiry with active connections exits non-zero")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		replicaID    = flag.Int("replica-id", 0, "this instance's index within a collector tier (requires -replicas)")
		replicas     = flag.Int("replicas", 0, "collector tier size; 0 runs standalone")
	)
	flag.Parse()

	var (
		reg    *obs.Registry
		health *obs.Health
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		health = &obs.Health{}
		msrv := obs.Serve(*metricsAddr, reg, health, log.Printf)
		defer msrv.Close()
		log.Printf("metrics on http://%s/metrics", *metricsAddr)
	}

	cfg := collector.Config{
		Addr:          *addr,
		Token:         *token,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		MaxFrameBytes: *maxFrame,
		MaxConns:      *maxConns,
		ReplicaID:     *replicaID,
		TierReplicas:  *replicas,
		Metrics:       reg,
	}
	var (
		srv    *collector.Server
		done   <-chan struct{}
		drain  func(context.Context) error
		walLog *wal.Log
		dest   = *spool
	)
	if *spoolDir != "" {
		rcfg := collector.ReplicaConfig{
			Server:          cfg,
			SpoolDir:        *spoolDir,
			SpoolBytes:      *maxSeg,
			WALDir:          *walDir,
			CheckpointEvery: *ckptEvery,
			Health:          health,
		}
		if *walDir != "" {
			policy, err := wal.ParsePolicy(*fsync)
			if err != nil {
				log.Fatal(err)
			}
			rcfg.WAL = wal.Options{
				SegmentBytes: *walSeg,
				Policy:       policy,
				Interval:     *fsyncEvery,
				Metrics:      reg,
				MetricsName:  "collector",
			}
		}
		rep, err := collector.StartReplica(rcfg)
		if err != nil {
			log.Fatal(err)
		}
		if rec := rep.Recovery(); rec != nil {
			log.Printf("recovered: %s", rec)
		}
		srv, done, drain, walLog = rep.Server(), rep.Done(), rep.Drain, rep.WAL()
		dest = *spoolDir + string(os.PathSeparator) + "spool-*.trace"
	} else {
		if *walDir != "" {
			log.Fatal("-wal-dir requires -spool-dir (recovery rewinds the spool to sealed segments)")
		}
		srv, done, drain = serveFile(cfg, *spool, health)
	}
	if *replicas > 0 {
		log.Printf("listening on %s as tier replica %d of %d, spooling to %s", srv.Addr(), *replicaID, *replicas, dest)
	} else {
		log.Printf("listening on %s, spooling to %s", srv.Addr(), dest)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case <-done: // the listener died on its own (not a signal)
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	err := drain(dctx)
	cancel()
	if err != nil {
		log.Print(err)
	}

	st := srv.Stats()
	walSegs, walBytes := 0, int64(0)
	if walLog != nil {
		walSegs, walBytes = walLog.Segments(), walLog.Bytes()
	}
	log.Printf("done: %d conns (%d active), %d devices, %d batches (%d dup), %d samples, %d auth failures, %d sink errors, %d errors, wal %d segments / %d bytes",
		st.Conns.Load(), st.ActiveConns.Load(), st.Devices.Load(), st.Batches.Load(), st.DupBatches.Load(),
		st.Samples.Load(), st.AuthFails.Load(), st.SinkErrs.Load(), st.Errors.Load(), walSegs, walBytes)
	if err != nil {
		os.Exit(1)
	}
}

// serveFile runs a server that spools to one trace file, without a WAL. The
// returned drain stops serving, gives in-flight connections until its ctx
// ends, then flushes and closes the file.
func serveFile(cfg collector.Config, path string, health *obs.Health) (*collector.Server, <-chan struct{}, func(context.Context) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := trace.NewWriter(f)
	cfg.Sink = w.Write
	srv, err := collector.New(cfg)
	if err == nil {
		err = srv.Listen()
	}
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	var serveErr error
	go func() {
		defer close(done)
		serveErr = srv.Serve(ctx)
	}()
	return srv, done, func(dctx context.Context) error {
		health.SetDraining()
		stop()
		var err error
		select {
		case <-done:
			err = serveErr
		case <-dctx.Done():
			err = fmt.Errorf("drain: %w with %d connections still active", dctx.Err(), srv.Stats().ActiveConns.Load())
		}
		return errors.Join(err, w.Flush(), f.Close())
	}
}
