// Package collector implements the central collection server the
// measurement agents upload to (§2). It accepts authenticated TCP
// connections speaking the proto wire format, deduplicates batches so agent
// retries are idempotent, and spools accepted samples to a sink in arrival
// order.
package collector

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smartusage/internal/obs"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// Sink receives accepted samples. Implementations must be safe for
// sequential calls under the collector's internal lock; the sample is reused
// — and its string fields alias the connection's frame buffer (zero-copy
// decode) — so a sink that retains anything past its own return must deep
// copy it (Sample.Clone, or string([]byte(...)) per retained string).
type Sink func(*trace.Sample) error

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7020".
	Addr string
	// Listener, when non-nil, is used instead of listening on Addr — for
	// tests and fault injection (e.g. a faultnet-wrapped listener).
	Listener net.Listener
	// Token authenticates agents; empty disables authentication.
	Token string
	// ReplicaID and TierReplicas place this instance in a multi-collector
	// tier: TierReplicas is the tier size and ReplicaID this instance's
	// index in [0, TierReplicas). Replicas share nothing — each has its own
	// WAL and spool, dedup stays per replica, and a batch retried against a
	// different replica after failover lands twice across the tier. The
	// tiermerge package removes exactly those duplicates when the
	// per-replica spools are unioned. TierReplicas 0 (the default) is the
	// standalone configuration.
	ReplicaID    int
	TierReplicas int
	// Sink receives accepted samples.
	Sink Sink
	// ReadTimeout bounds each frame read (default 30 s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write (default 10 s), so a stalled
	// or malicious peer that stops draining acks cannot pin a connection
	// slot forever.
	WriteTimeout time.Duration
	// MaxFrameBytes caps one frame payload from a peer (default
	// proto.MaxFrameSize); larger frames tear the connection down.
	MaxFrameBytes int
	// MaxConns caps concurrent connections (default 256).
	MaxConns int
	// WAL makes accepted batches durable and is required: each batch is
	// appended as received before its first sample reaches the sink, and
	// committed per the log's policy (a group commit under FsyncRecord)
	// before it is acked; recovery rebuilds dedup state and un-checkpointed
	// sink contents from it after a crash (a Replica does both).
	WAL *wal.Log
	// Hook, when non-nil, is consulted at crash points ("pre-sink",
	// "pre-ack") for fault injection; a non-nil return aborts the
	// operation as a `kill -9` at that instant would. Production servers
	// leave it nil. See faultnet.CrashPlan.
	Hook func(point string) error
	// Logf logs server events; nil uses log.Printf.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives collector_* instruments: aggregate
	// counters mirroring Stats, a sink latency histogram, and recovery
	// counters. Nil keeps every instrumented site a no-op.
	Metrics *obs.Registry
}

// Stats are the server's atomic counters.
type Stats struct {
	Conns       atomic.Int64
	ActiveConns atomic.Int64
	Batches     atomic.Int64
	DupBatches  atomic.Int64
	Samples     atomic.Int64
	AuthFails   atomic.Int64
	SinkErrs    atomic.Int64
	Errors      atomic.Int64
	Devices     atomic.Int64 // distinct devices that completed a hello

	// FailoverSessions counts hellos from agents connecting to a replica
	// other than their rendezvous primary — a direct read on how much
	// failover traffic this instance is absorbing for its peers.
	FailoverSessions atomic.Int64
}

// DeviceStats is the per-device session bookkeeping kept by the server.
type DeviceStats struct {
	LastBatch uint64 // highest fully acked batch ID
	Batches   int64  // batch frames received, duplicates included
	Samples   int64  // samples accepted into the sink
	Sessions  int64  // hello handshakes completed
}

// serverMetrics holds the collector's obs instruments; every field is nil
// (a no-op) when Config.Metrics is unset, so instrumented sites call them
// unconditionally. Counter sites mirror the Stats sites one-to-one, which is
// what lets the soak tests reconcile the two exactly.
type serverMetrics struct {
	timed       bool // sink histogram installed: worth reading the clock
	conns       *obs.Counter
	activeConns *obs.Gauge
	frames      *obs.Counter
	dups        *obs.Counter
	accepted    *obs.Counter
	samples     *obs.Counter
	bytes       *obs.Counter
	acks        *obs.Counter
	authFails   *obs.Counter
	sinkErrs    *obs.Counter
	connErrs    *obs.Counter
	devices     *obs.Gauge
	sinkSeconds *obs.Histogram
	recoveries  *obs.Counter
	recBatches  *obs.Counter
	resinked    *obs.Counter
	checkpoints *obs.Counter
	replicaID   *obs.Gauge
	failoverIn  *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	reg.SetHelp("collector_batch_frames_total", "Batch frames received, duplicates included.")
	reg.SetHelp("collector_dup_batches_total", "Batch frames absorbed by dedup.")
	reg.SetHelp("collector_accepted_batches_total", "Batches committed (WAL + sink + dedup state).")
	reg.SetHelp("collector_samples_total", "Samples accepted into the sink.")
	reg.SetHelp("collector_sink_seconds", "Per-sample sink call latency.")
	reg.SetHelp("collector_recoveries_total", "WAL recoveries completed at startup.")
	reg.SetHelp("collector_replica_id", "This instance's index within the collector tier.")
	reg.SetHelp("collector_failover_sessions_total", "Hellos from agents failed over from another replica.")
	return serverMetrics{
		timed:       reg != nil,
		conns:       reg.Counter("collector_conns_total"),
		activeConns: reg.Gauge("collector_active_conns"),
		frames:      reg.Counter("collector_batch_frames_total"),
		dups:        reg.Counter("collector_dup_batches_total"),
		accepted:    reg.Counter("collector_accepted_batches_total"),
		samples:     reg.Counter("collector_samples_total"),
		bytes:       reg.Counter("collector_batch_bytes_total"),
		acks:        reg.Counter("collector_batch_acks_total"),
		authFails:   reg.Counter("collector_auth_fails_total"),
		sinkErrs:    reg.Counter("collector_sink_errors_total"),
		connErrs:    reg.Counter("collector_conn_errors_total"),
		devices:     reg.Gauge("collector_devices"),
		sinkSeconds: reg.Histogram("collector_sink_seconds", nil),
		recoveries:  reg.Counter("collector_recoveries_total"),
		recBatches:  reg.Counter("collector_recovered_batches_total"),
		resinked:    reg.Counter("collector_resinked_samples_total"),
		checkpoints: reg.Counter("collector_checkpoints_total"),
		replicaID:   reg.Gauge("collector_replica_id"),
		failoverIn:  reg.Counter("collector_failover_sessions_total"),
	}
}

// deviceState tracks one device under Server.mu. partialID/partialNext
// record a batch whose sink failed midway, so an agent retry resumes at the
// first unsinked sample instead of re-sinking the prefix: together with
// batch dedup this keeps delivery exactly-once even across sink failures.
type deviceState struct {
	haveLast    bool
	lastBatch   uint64
	batches     int64
	samples     int64
	sessions    int64
	partialID   uint64
	partialNext int
	// commit is the WAL commit token of the device's last logged batch
	// record (0 for none since Open, which synced what it replays).
	commit int64
}

// dup reports whether batch id was already applied: it, or a later batch,
// reached the sink whole.
func (st *deviceState) dup(id uint64) bool { return st.haveLast && id <= st.lastBatch }

// sinkBatchLocked sinks the samples of b the sink has not taken (a failed
// sink's prefix is skipped) and records the outcome: b is applied once its
// last sample is sunk, and a failure leaves the cursor a retry resumes at.
// It returns how many samples it sank. Callers have ruled out st.dup.
func (s *Server) sinkBatchLocked(st *deviceState, b *proto.Batch) (int, error) {
	start := 0
	if st.partialID == b.BatchID {
		start = min(st.partialNext, len(b.Samples))
	}
	for i := start; i < len(b.Samples); i++ {
		var t0 time.Time
		if s.m.timed {
			t0 = time.Now()
		}
		err := s.sink(&b.Samples[i])
		if s.m.timed {
			s.m.sinkSeconds.Observe(time.Since(t0).Seconds())
		}
		if err != nil {
			st.partialID, st.partialNext = b.BatchID, i
			st.samples += int64(i - start)
			return i - start, err
		}
	}
	st.haveLast, st.lastBatch = true, b.BatchID
	st.partialID, st.partialNext = 0, 0
	st.samples += int64(len(b.Samples) - start)
	return len(b.Samples) - start, nil
}

// Server is the collection server. Create with New, start with Serve.
type Server struct {
	cfg   Config
	stats Stats
	m     serverMetrics

	mu      sync.Mutex
	sink    Sink                            // guarded by mu
	devices map[trace.DeviceID]*deviceState // guarded by mu
	// walBuf is batch-record scratch, reused across sessions. guarded by mu
	walBuf []byte

	sessionID atomic.Uint64

	lis  net.Listener
	wg   sync.WaitGroup
	sem  chan struct{}
	logf func(string, ...any)
}

// New validates cfg and returns an unstarted Server.
func New(cfg Config) (*Server, error) {
	if cfg.Sink == nil {
		return nil, errors.New("collector: nil sink")
	}
	if cfg.WAL == nil {
		return nil, errors.New("collector: nil WAL")
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.MaxFrameBytes == 0 {
		cfg.MaxFrameBytes = proto.MaxFrameSize
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	if cfg.TierReplicas > 0 && (cfg.ReplicaID < 0 || cfg.ReplicaID >= cfg.TierReplicas) {
		return nil, fmt.Errorf("collector: replica id %d outside tier of %d", cfg.ReplicaID, cfg.TierReplicas)
	}
	if cfg.TierReplicas == 0 && cfg.ReplicaID != 0 {
		return nil, fmt.Errorf("collector: replica id %d without a tier size", cfg.ReplicaID)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	m := newServerMetrics(cfg.Metrics)
	m.replicaID.Set(int64(cfg.ReplicaID))
	return &Server{
		cfg:     cfg,
		m:       m,
		sink:    cfg.Sink,
		devices: make(map[trace.DeviceID]*deviceState),
		sem:     make(chan struct{}, cfg.MaxConns),
		logf:    logf,
	}, nil
}

// Stats exposes the server counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Device returns the session bookkeeping for one device, and whether the
// device has connected at all.
func (s *Server) Device(dev trace.DeviceID) (DeviceStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.devices[dev]
	if !ok {
		return DeviceStats{}, false
	}
	return DeviceStats{
		LastBatch: st.lastBatch,
		Batches:   st.batches,
		Samples:   st.samples,
		Sessions:  st.sessions,
	}, true
}

// Addr returns the bound listen address once Serve has started.
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Listen binds the configured address (or adopts cfg.Listener when set).
// It is split from Serve so callers can learn the bound port (Addr) before
// serving, e.g. with Addr ":0" in tests.
func (s *Server) Listen() error {
	if s.cfg.Listener != nil {
		s.lis = s.cfg.Listener
		return nil
	}
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("collector: listen %s: %w", s.cfg.Addr, err)
	}
	s.lis = lis
	return nil
}

// Serve accepts connections until ctx is cancelled, then closes the listener
// and waits for in-flight connections to finish. Listen must have been
// called (Serve calls it if not).
func (s *Server) Serve(ctx context.Context) error {
	if s.lis == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		s.lis.Close()
	}()

	for {
		conn, err := s.lis.Accept()
		if err != nil {
			s.wg.Wait()
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return fmt.Errorf("collector: accept: %w", err)
		}
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			conn.Close()
			s.wg.Wait()
			return nil
		}
		s.stats.Conns.Add(1)
		s.stats.ActiveConns.Add(1)
		s.m.conns.Inc()
		s.m.activeConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer func() {
				conn.Close()
				<-s.sem
				s.stats.ActiveConns.Add(-1)
				s.m.activeConns.Add(-1)
				s.wg.Done()
			}()
			if err := s.handle(ctx, conn); err != nil && !errors.Is(err, io.EOF) {
				s.stats.Errors.Add(1)
				s.m.connErrs.Inc()
				s.logf("collector: %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// handle drives one agent connection. Every read and write carries its own
// deadline: a peer that stalls in either direction is disconnected instead
// of pinning a connection slot.
func (s *Server) handle(ctx context.Context, nc net.Conn) error {
	c := proto.NewConn(nc)
	c.SetReadLimit(s.cfg.MaxFrameBytes)
	rdeadline := func() {
		nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	wdeadline := func() {
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}

	rdeadline()
	ft, payload, err := c.ReadFrame()
	if err != nil {
		return fmt.Errorf("read hello: %w", err)
	}
	if ft != proto.FrameHello {
		return s.fail(nc, c, "expected hello, got %s", ft)
	}
	var hello proto.Hello
	if err := proto.DecodeHello(payload, &hello); err != nil {
		return s.fail(nc, c, "bad hello: %v", err)
	}
	if hello.Version != proto.Version {
		return s.fail(nc, c, "unsupported version %d", hello.Version)
	}
	if !hello.OS.Valid() {
		return s.fail(nc, c, "invalid os %d", hello.OS)
	}
	if s.cfg.Token != "" && hello.Token != s.cfg.Token {
		s.stats.AuthFails.Add(1)
		s.m.authFails.Inc()
		return s.fail(nc, c, "authentication failed")
	}
	if hello.Replica > 0 {
		// The agent ranked this server below its rendezvous primary, so it
		// is here because a preferred replica failed (or failed earlier in
		// a still-sticky session).
		s.stats.FailoverSessions.Add(1)
		s.m.failoverIn.Inc()
	}
	lastBatch := s.beginSession(hello.Device)
	ack := proto.HelloAck{SessionID: s.sessionID.Add(1), LastBatch: lastBatch}
	wdeadline()
	if err := c.WriteFrame(proto.FrameHelloAck, proto.AppendHelloAck(nil, &ack)); err != nil {
		return err
	}

	var batch proto.Batch
	var out []byte
	for {
		if ctx.Err() != nil {
			return nil
		}
		rdeadline()
		ft, payload, err := c.ReadFrame()
		if err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		switch ft {
		case proto.FrameBye:
			return nil
		case proto.FrameBatch:
			// Zero-copy: sample ESSIDs alias payload (the connection's reused
			// frame buffer). accept() fully consumes the batch — the payload
			// copied into the WAL, sinks copy what they retain — before the
			// next ReadFrame overwrites it.
			if err := proto.DecodeBatchAlias(payload, &batch); err != nil {
				return s.fail(nc, c, "bad batch: %v", err)
			}
			s.m.bytes.Add(int64(len(payload)))
			accepted, commitSeq, err := s.accept(hello.Device, payload, &batch)
			if err != nil {
				if errors.Is(err, errBadBatch) {
					return s.fail(nc, c, "bad batch: %v", err)
				}
				return fmt.Errorf("sink: %w", err)
			}
			// Group commit: the server lock is released, so this fsync wait
			// coalesces with commits from concurrent connections. Must
			// precede the ack — WAL-durable-before-ack is the exactly-once
			// invariant recovery depends on.
			if err := s.cfg.WAL.Commit(commitSeq); err != nil {
				return fmt.Errorf("wal commit: %w", err)
			}
			if s.cfg.Hook != nil {
				// Crash point: the batch is committed (WAL + sink +
				// dedup state) but the agent never hears about it; its
				// retry must be absorbed by dedup.
				if err := s.cfg.Hook("pre-ack"); err != nil {
					return err
				}
			}
			back := proto.BatchAck{BatchID: batch.BatchID, Accepted: accepted}
			out = proto.AppendBatchAck(out[:0], &back)
			wdeadline()
			if err := c.WriteFrame(proto.FrameBatchAck, out); err != nil {
				return err
			}
			s.m.acks.Inc()
		default:
			return s.fail(nc, c, "unexpected frame %s", ft)
		}
	}
}

// beginSession records a completed hello in the device bookkeeping and
// returns the device's last fully-acked batch ID (0 if none) for the
// HelloAck session-resume field.
func (s *Server) beginSession(dev trace.DeviceID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.deviceLocked(dev)
	st.sessions++
	if !st.haveLast {
		return 0
	}
	return st.lastBatch
}

// deviceLocked returns the state for dev, creating it. Callers hold s.mu.
func (s *Server) deviceLocked(dev trace.DeviceID) *deviceState {
	st := s.devices[dev]
	if st == nil {
		st = &deviceState{}
		s.devices[dev] = st
		s.stats.Devices.Add(1)
		s.m.devices.Add(1)
	}
	return st
}

// errBadBatch marks batches rejected by validation (as opposed to sink
// failures); the peer gets an explicit error frame.
var errBadBatch = errors.New("invalid batch")

// accept deduplicates and spools b, the batch decoded from the frame
// payload, returning how many samples were newly accepted plus the WAL
// commit token the ack must wait on: the new record's, or for a duplicate
// the device's last record's, whose round may still be in flight.
// accept runs under s.mu, so it must not wait on an fsync — it appends
// asynchronously and the caller commits the token after the lock is
// released, letting concurrent connections share group-commit fsync rounds.
//
// The whole batch is validated before any sample reaches the sink: a
// poisoned mid-batch sample must reject the batch atomically, because a
// half-sinked batch is never acked and the agent's retry would re-sink the
// already-spooled prefix, breaking exactly-once delivery. Sink failures
// after validation record how far the batch got (deviceState.partialNext)
// so the retry resumes exactly at the first unsinked sample.
func (s *Server) accept(dev trace.DeviceID, payload []byte, b *proto.Batch) (uint32, int64, error) {
	for i := range b.Samples {
		sample := &b.Samples[i]
		if sample.Device != dev {
			return 0, 0, fmt.Errorf("%w: sample %d device %s != session device %s", errBadBatch, i, sample.Device, dev)
		}
		if err := sample.Validate(); err != nil {
			return 0, 0, fmt.Errorf("%w: sample %d: %v", errBadBatch, i, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Batches.Add(1)
	s.m.frames.Inc()
	st := s.deviceLocked(dev)
	st.batches++
	if st.dup(b.BatchID) {
		// The original's ack may still wait on the round that syncs its
		// record, or never come if that round fails: so must the dup's.
		s.stats.DupBatches.Add(1)
		s.m.dups.Inc()
		return 0, st.commit, nil
	}
	// Durability point: the batch enters the WAL as received, the device
	// then the frame payload (flushed to the OS here, fsynced by the
	// caller's Commit before the ack), ahead of the first sample reaching
	// the sink, so a crash from here on can always rebuild it. A
	// partial-sink resume logs it again: the first attempt's record may sit
	// before a checkpoint that snapshotted the partial cursor, and recovery
	// re-sinks only records past the checkpoint. Its commit also covers the
	// first record, which that attempt's dead connection never committed.
	s.walBuf = binary.AppendUvarint(s.walBuf[:0], uint64(dev))
	s.walBuf = append(s.walBuf, payload...)
	_, commitSeq, err := s.cfg.WAL.AppendAsync(recBatch, s.walBuf)
	if err != nil {
		return 0, 0, fmt.Errorf("wal append: %w", err)
	}
	st.commit = commitSeq
	if s.cfg.Hook != nil {
		// Crash point: batch flushed to the WAL, nothing sinked yet.
		if err := s.cfg.Hook("pre-sink"); err != nil {
			//smuvet:allow commitpair -- no ack is sent on this path, so the agent retries; the retry's own append and commit cover this still-unsynced record before its ack
			return 0, 0, err
		}
	}
	sunk, err := s.sinkBatchLocked(st, b)
	s.stats.Samples.Add(int64(sunk))
	s.m.samples.Add(int64(sunk))
	if err != nil {
		s.stats.SinkErrs.Add(1)
		s.m.sinkErrs.Inc()
		// No ack: the retry resumes at the cursor, its commit covering this.
		return 0, 0, err
	}
	s.m.accepted.Inc()
	return uint32(sunk), commitSeq, nil
}

// fail sends an error frame (under a write deadline) then reports the
// failure to the caller.
func (s *Server) fail(nc net.Conn, c *proto.Conn, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	ef := proto.ErrorFrame{Message: msg}
	nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = c.WriteFrame(proto.FrameError, proto.AppendErrorFrame(nil, &ef))
	return errors.New("collector: " + msg)
}
