package collector

import (
	"context"
	"errors"
	"fmt"
	"time"

	"smartusage/internal/obs"
	"smartusage/internal/wal"
)

// ReplicaConfig configures a Replica.
type ReplicaConfig struct {
	// Server configures the collection server. Leave Sink and WAL unset:
	// the replica sinks into its spool and owns its WAL.
	Server Config
	// SpoolDir holds the spool's segments, each rotated at SpoolBytes
	// (<= 0 defaults to 256 MiB).
	SpoolDir   string
	SpoolBytes int64
	// WALDir holds the replica's write-ahead log, opened there with WAL's
	// options (group commit unless WAL.Policy says otherwise), recovered
	// before serving and checkpointed against the spool. It is required.
	WALDir string
	WAL    wal.Options
	// CheckpointEvery is the checkpoint period while serving; 0 cuts only
	// Drain's final checkpoint.
	CheckpointEvery time.Duration
	// WrapSink, when non-nil, wraps the spool's sink, recovery's re-sinks
	// included.
	WrapSink func(Sink) Sink
	// Health, when non-nil, reads recovering from before the WAL opens
	// until recovery ends, and draining from the start of Drain.
	Health *obs.Health
}

// Replica is one collector process: a Server, the RotatingSpool it sinks
// into and the WAL whose checkpoints align with sealed spool segments. It
// alone pairs recovery with the spool rewind and closes things in one order
// (DESIGN.md "Durability & recovery"). Create it with
// StartReplica and stop it with exactly one call to Drain or Kill.
type Replica struct {
	srv    *Server
	spool  *RotatingSpool
	wal    *wal.Log
	rec    *Recovery
	health *obs.Health

	stop     context.CancelFunc
	served   chan struct{} // closed when Serve returns
	serveErr error         // Serve's result, written before served closes
	ckptDone chan struct{} // closed when the checkpoint loop exits
}

// StartReplica opens the spool and the WAL, recovers from the WAL with the
// spool rewound to its last checkpoint, listens, and serves in the
// background, checkpointing every cfg.CheckpointEvery.
func StartReplica(cfg ReplicaConfig) (_ *Replica, err error) {
	if cfg.Server.Sink != nil || cfg.Server.WAL != nil {
		return nil, errors.New("collector: a replica brings its own sink and WAL")
	}
	if cfg.WALDir == "" {
		return nil, errors.New("collector: a replica needs a WAL directory")
	}
	r := &Replica{health: cfg.Health, served: make(chan struct{}), ckptDone: make(chan struct{})}
	defer func() {
		if err != nil {
			err = errors.Join(err, r.close())
		}
	}()
	if r.spool, err = NewRotatingSpool(cfg.SpoolDir, cfg.SpoolBytes); err != nil {
		return nil, err
	}
	// Opening the WAL repairs a torn tail, so the window in which a
	// failover client must route around this replica starts here.
	r.health.SetRecovering(true)
	if r.wal, err = wal.Open(cfg.WALDir, cfg.WAL); err != nil {
		return nil, err
	}
	sc := cfg.Server
	sc.Sink, sc.WAL = r.spool.Sink(), r.wal
	if cfg.WrapSink != nil {
		sc.Sink = cfg.WrapSink(sc.Sink)
	}
	if r.srv, err = New(sc); err != nil {
		return nil, err
	}
	if r.rec, err = r.srv.recoverWAL(r.spool.Restore); err != nil {
		return nil, err
	}
	r.health.SetRecovering(false)
	if err = r.srv.Listen(); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	go func() {
		defer close(r.served)
		r.serveErr = r.srv.Serve(ctx)
	}()
	go r.checkpointLoop(ctx, cfg.CheckpointEvery)
	return r, nil
}

func (r *Replica) checkpointLoop(ctx context.Context, every time.Duration) {
	defer close(r.ckptDone)
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := r.srv.checkpoint(r.spool.Seal); err != nil {
				r.srv.logf("collector: checkpoint: %v", err)
			}
		case <-ctx.Done():
			return
		}
	}
}

// Drain shuts the replica down gracefully. Health turns to draining, the
// server stops accepting, and in-flight connections get until ctx ends to
// finish. Only if they all did is a final checkpoint cut, so that the next
// start replays just a snapshot; after an expired drain the WAL still holds
// everything and the next start recovers it. The spool then the WAL close,
// so the log outlives the data it protects. Drain returns Serve's own
// failure, if it had one, and ctx's error if the drain expired.
func (r *Replica) Drain(ctx context.Context) error {
	r.health.SetDraining()
	r.stop()
	<-r.ckptDone
	select {
	case <-r.served:
	case <-ctx.Done():
	}
	var err error
	select {
	case <-r.served: // the connections finished, if only at the deadline
		err = r.serveErr
		if cerr := r.srv.checkpoint(r.spool.Seal); cerr != nil {
			err = errors.Join(err, fmt.Errorf("collector: final checkpoint: %w", cerr))
		}
	default:
		err = fmt.Errorf("collector: drain: %w with %d connections still active", ctx.Err(), r.srv.stats.ActiveConns.Load())
	}
	return errors.Join(err, r.close())
}

// Kill stops the replica the way a killed process stops. It serves no
// more, and nothing is checkpointed, flushed or closed: the spool and the
// WAL stay as the dead process left them, for a successor started on the
// same directories to recover. Kill returns once every connection handler
// has returned.
func (r *Replica) Kill() {
	r.stop()
	<-r.ckptDone
	<-r.served
}

// close closes the spool, then the WAL, whichever StartReplica opened.
func (r *Replica) close() error {
	var err error
	if r.spool != nil {
		err = r.spool.Close()
	}
	if r.wal != nil {
		err = errors.Join(err, r.wal.Close())
	}
	return err
}

// Server returns the replica's server, for its address and counters.
func (r *Replica) Server() *Server { return r.srv }

// Spool returns the replica's spool.
func (r *Replica) Spool() *RotatingSpool { return r.spool }

// WAL returns the replica's log.
func (r *Replica) WAL() *wal.Log { return r.wal }

// Recovery reports what the start-up replay rebuilt.
func (r *Replica) Recovery() *Recovery { return r.rec }

// Done is closed once the replica stops serving: after Drain or Kill, or
// when its listener fails on its own.
func (r *Replica) Done() <-chan struct{} { return r.served }
