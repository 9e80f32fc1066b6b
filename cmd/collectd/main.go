// Command collectd runs the central collection server: it accepts
// measurement-agent connections and spools accepted samples into rotating
// trace segments under -spool-dir, as one collector.Replica. Stop it with
// SIGINT/SIGTERM for a graceful shutdown — the server drains in-flight
// connections (bounded by -drain-timeout), flushes the spool, cuts a final
// WAL checkpoint, and logs a stats summary. If the drain fails — its
// deadline expires with connections still active, or the listener, the
// final checkpoint or a close fails — collectd exits non-zero.
//
// Collection is crash-safe: every accepted batch is written as received to
// a write-ahead log under -wal-dir before it is sinked, and group-committed
// (fsynced together with the batches of concurrent connections) before it
// is acked; periodic checkpoints bound the log, and a restart replays it —
// rebuilding per-device dedup state and any samples the spool had not yet
// made durable — so `kill -9` loses nothing that was acked and double-sinks
// nothing on agent retry.
//
// Usage:
//
//	collectd -addr :7020 -spool-dir spool/ -token s3cret
//	collectd -addr :7020 -spool-dir spool/ -wal-dir wal/
//
// A horizontal tier runs N of these, each with its own -wal-dir/-spool-dir
// and a distinct -replica-id (agents take the full address list and fail
// over between them). While a replica replays its WAL at startup /healthz
// reports 503 "recovering", so failover clients route around it:
//
//	collectd -addr :7020 -replica-id 0 -replicas 3 -spool-dir spool0/ -wal-dir wal0/
//
// cmd/tiermerge turns drained spools, one collector's or a tier's, into one
// trace file:
//
//	tiermerge -o collected.trace spool/
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"smartusage/internal/collector"
	"smartusage/internal/obs"
	"smartusage/internal/proto"
	"smartusage/internal/wal"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("collectd: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:7020", "TCP listen address")
		spoolDir     = flag.String("spool-dir", "spool", "rotate trace segments into this directory")
		maxSeg       = flag.Int64("maxseg", 256<<20, "segment size budget for -spool-dir (bytes)")
		token        = flag.String("token", "", "shared auth token (empty disables auth)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline")
		maxFrame     = flag.Int("maxframe", proto.MaxFrameSize, "per-frame payload cap (bytes)")
		maxConns     = flag.Int("maxconns", 256, "concurrent connection cap")
		walDir       = flag.String("wal-dir", "wal", "write-ahead log directory")
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

	rcfg := collector.ReplicaConfig{
		Server: collector.Config{
			Addr:          *addr,
			Token:         *token,
			ReadTimeout:   *readTimeout,
			WriteTimeout:  *writeTimeout,
			MaxFrameBytes: *maxFrame,
			MaxConns:      *maxConns,
			ReplicaID:     *replicaID,
			TierReplicas:  *replicas,
			Metrics:       reg,
		},
		SpoolDir:        *spoolDir,
		SpoolBytes:      *maxSeg,
		WALDir:          *walDir,
		WAL:             wal.Options{SegmentBytes: *walSeg, Metrics: reg, MetricsName: "collector"},
		CheckpointEvery: *ckptEvery,
		Health:          health,
	}
	rep, err := collector.StartReplica(rcfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("recovered: %s", rep.Recovery())
	srv := rep.Server()
	dest := filepath.Join(*spoolDir, "spool-*.trace")
	if *replicas > 0 {
		log.Printf("listening on %s as tier replica %d of %d, spooling to %s", srv.Addr(), *replicaID, *replicas, dest)
	} else {
		log.Printf("listening on %s, spooling to %s", srv.Addr(), dest)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case <-rep.Done(): // the listener died on its own (not a signal)
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	err = rep.Drain(dctx)
	cancel()
	if err != nil {
		log.Print(err)
	}

	st := srv.Stats()
	log.Printf("done: %d conns (%d active), %d devices, %d batches (%d dup), %d samples, %d auth failures, %d sink errors, %d errors, wal %d segments / %d bytes",
		st.Conns.Load(), st.ActiveConns.Load(), st.Devices.Load(), st.Batches.Load(), st.DupBatches.Load(),
		st.Samples.Load(), st.AuthFails.Load(), st.SinkErrs.Load(), st.Errors.Load(), rep.WAL().Segments(), rep.WAL().Bytes())
	if err != nil {
		os.Exit(1)
	}
}
