// Package agent implements the device-side half of the measurement system
// (§2): it buffers each 10-minute sample, uploads batches to the collection
// server, and — exactly as the paper's software does — "if the upload fails
// the software caches the data and sends it later", bounded by a cache
// limit and retried on the next flush.
//
// An Agent also applies the per-OS visibility filter: iOS builds strip
// application records and non-associated scan results before upload, so a
// trace collected through an Agent has the same information asymmetry as
// the paper's dataset.
package agent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"smartusage/internal/obs"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// Config configures an Agent.
type Config struct {
	// Servers lists the collector addresses, one for a single collector or
	// one per replica of a tier. The agent orders them per device by
	// rendezvous hashing (see ReplicaPreference), uploads to the first, and
	// fails over to the next on dial or ack failure.
	Servers []string
	// Device and OS identify this installation.
	Device trace.DeviceID
	OS     trace.OS
	// Token authenticates against the collector.
	Token string

	// BatchSize triggers an automatic flush once this many samples are
	// pending (default 6, i.e. hourly at the 10-minute cadence).
	BatchSize int
	// MaxCache bounds cached samples awaiting upload; beyond it the
	// oldest samples are dropped, as a storage-constrained handset would
	// (default 4320 = 30 days).
	MaxCache int
	// DialTimeout and IOTimeout bound network operations (default 5 s and
	// 10 s).
	DialTimeout time.Duration
	IOTimeout   time.Duration

	// MaxAttempts caps upload attempts per batch within one Flush call
	// (default 3). Failures beyond the cap leave the batch cached for the
	// next flush, preserving the paper's cache-and-retry semantics.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per
	// consecutive failure with ±50% jitter (seeded by Device, so a schedule
	// is reproducible) and is capped at MaxBackoff (defaults 100 ms and
	// 5 s). The failure streak persists across Flush calls and resets on
	// any successful upload, including one that succeeded by failing over.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// SpoolDir, when non-empty, journals the upload queue to disk (see
	// spool.go): a killed agent process restarts with the same pending
	// samples, in-flight batch, and batch-ID sequence, so nothing is lost
	// and nothing is double-delivered. Empty keeps the queue in memory
	// only, as the seed behaviour.
	SpoolDir string

	// Dial overrides the dialer, for tests and fault injection; nil uses
	// net.DialTimeout.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Sleep overrides the wait between retries, for tests; nil uses
	// time.Sleep.
	Sleep func(time.Duration)

	// Metrics, when non-nil, receives agent_* instruments. The counters are
	// unlabeled aggregates — many agents sharing one registry share the same
	// interned instruments, so a fleet simulation reads fleet-wide totals.
	Metrics *obs.Registry
}

// agentMetrics holds the agent's obs instruments; all fields are nil (a
// no-op) when Config.Metrics is unset. The counter sites mirror the Stats
// sites one-to-one so soak tests can reconcile the two exactly.
type agentMetrics struct {
	records        *obs.Counter
	drops          *obs.Counter
	uploads        *obs.Counter
	flushes        *obs.Counter
	flushErrs      *obs.Counter
	retries        *obs.Counter
	redials        *obs.Counter
	resumed        *obs.Counter
	spoolRecords   *obs.Counter
	spoolErrs      *obs.Counter
	abandoned      *obs.Counter
	failovers      *obs.Counter
	tierExhausted  *obs.Counter
	backoffSeconds *obs.Histogram
}

func newAgentMetrics(reg *obs.Registry) agentMetrics {
	reg.SetHelp("agent_records_total", "Samples recorded across all agents.")
	reg.SetHelp("agent_uploads_total", "Samples acked by the collector.")
	reg.SetHelp("agent_retries_total", "Upload re-attempts after backoff.")
	reg.SetHelp("agent_backoff_seconds", "Backoff delays slept before retries.")
	reg.SetHelp("agent_spool_records_total", "Records appended to the disk spool journal.")
	reg.SetHelp("agent_failovers_total", "Switches to the next collector replica after a failure.")
	reg.SetHelp("agent_tier_exhausted_total", "Upload rounds in which every configured replica refused.")
	return agentMetrics{
		records:        reg.Counter("agent_records_total"),
		drops:          reg.Counter("agent_drops_total"),
		uploads:        reg.Counter("agent_uploads_total"),
		flushes:        reg.Counter("agent_flushes_total"),
		flushErrs:      reg.Counter("agent_flush_errors_total"),
		retries:        reg.Counter("agent_retries_total"),
		redials:        reg.Counter("agent_redials_total"),
		resumed:        reg.Counter("agent_resumed_samples_total"),
		spoolRecords:   reg.Counter("agent_spool_records_total"),
		spoolErrs:      reg.Counter("agent_spool_errors_total"),
		abandoned:      reg.Counter("agent_abandoned_samples_total"),
		failovers:      reg.Counter("agent_failovers_total"),
		tierExhausted:  reg.Counter("agent_tier_exhausted_total"),
		backoffSeconds: reg.Histogram("agent_backoff_seconds", nil),
	}
}

// Stats counts agent activity.
type Stats struct {
	Recorded  int
	Uploaded  int
	Dropped   int // cache overflow
	Flushes   int
	FlushErrs int
	Retries   int // re-attempts within flushes, after backoff
	Redials   int
	Resumed   int // samples rebuilt from the disk spool at startup
	SpoolErrs int // journal writes that failed (agent degraded to memory)

	Failovers     int // switches to the next replica after a failure
	TierExhausted int // upload rounds where every replica refused
}

// Agent buffers and uploads samples. It is not safe for concurrent use; a
// device produces samples from a single loop.
//
// Upload is exactly-once: when a batch is first attempted its contents and
// batch ID are frozen ("in flight"); retries resend the identical batch
// under the identical ID so the collector's dedup can drop replays whose
// ack was lost. Samples recorded during retries queue behind the in-flight
// batch.
type Agent struct {
	cfg   Config
	stats Stats
	m     agentMetrics

	pending      []trace.Sample // recorded, not yet assigned to a batch
	inflight     []trace.Sample // frozen batch awaiting ack
	inflightID   uint64
	inflightSent bool // batch bytes may have reached the server (this or a prior incarnation)
	batchID      uint64
	tierLast     uint64 // max HelloAck.LastBatch seen across all replicas

	replicas []string // collector tier in this device's preference order
	cur      int      // index into replicas of the current target
	streak   int      // consecutive failed attempts across flushes (backoff exponent)

	spool    *wal.Log // disk journal of the queue; nil without SpoolDir
	spoolBuf []byte
	encBuf   []byte // batch encode scratch, reused across flushes

	conn      net.Conn
	pc        *proto.Conn
	connected bool

	rng *rand.Rand // backoff jitter
}

// New validates cfg and returns an Agent.
func New(cfg Config) (*Agent, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("agent: empty server address")
	}
	seen := make(map[string]bool, len(cfg.Servers))
	for _, s := range cfg.Servers {
		if s == "" {
			return nil, errors.New("agent: empty replica address in Servers")
		}
		if seen[s] {
			return nil, fmt.Errorf("agent: duplicate replica address %q", s)
		}
		seen[s] = true
	}
	if !cfg.OS.Valid() {
		return nil, fmt.Errorf("agent: invalid OS %d", cfg.OS)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 6
	}
	if cfg.MaxCache == 0 {
		cfg.MaxCache = 4320
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	a := &Agent{
		cfg:      cfg,
		m:        newAgentMetrics(cfg.Metrics),
		replicas: ReplicaPreference(cfg.Device, cfg.Servers),
		rng:      rand.New(rand.NewSource(int64(cfg.Device) + 1)),
	}
	if cfg.SpoolDir != "" {
		if err := a.openSpool(); err != nil {
			return nil, err
		}
		a.m.resumed.Add(int64(a.stats.Resumed))
		if a.inflight != nil {
			// The journaled in-flight batch may have reached the server
			// before the previous incarnation died; its ID must survive
			// so the collector's dedup can absorb the re-send.
			a.inflightSent = true
		}
	}
	return a, nil
}

// Stats returns a copy of the agent's counters.
func (a *Agent) Stats() Stats { return a.stats }

// Pending returns how many samples await upload (queued plus in flight).
func (a *Agent) Pending() int { return len(a.pending) + len(a.inflight) }

// Record buffers one sample, applying the OS visibility filter, and flushes
// when the batch threshold is reached. A failed flush keeps the samples
// cached; Record itself never fails.
func (a *Agent) Record(s *trace.Sample) {
	// Copy slices but not strings: the caller's ESSIDs are ordinary
	// immutable strings (agents produce samples, they don't alias-decode
	// them), so the deep string copy Clone does for the collector's
	// zero-copy path would be one allocation per AP of pure waste here.
	cp := *s
	if s.Apps != nil {
		cp.Apps = append([]trace.AppTraffic(nil), s.Apps...)
	}
	if s.APs != nil {
		cp.APs = append([]trace.APObs(nil), s.APs...)
	}
	cp.Device = a.cfg.Device
	cp.OS = a.cfg.OS
	if a.cfg.OS == trace.IOS {
		// iOS exposes neither per-application counters nor non-associated
		// scan results (§2).
		cp.Apps = nil
		kept := cp.APs[:0]
		for _, ap := range cp.APs {
			if ap.Associated {
				kept = append(kept, ap)
			}
		}
		cp.APs = kept
	}
	a.journalSample(&cp) // journal before the queue change takes effect
	a.pending = append(a.pending, cp)
	a.stats.Recorded++
	a.m.records.Inc()
	if over := a.Pending() - a.cfg.MaxCache; over > 0 {
		if over > len(a.pending) {
			over = len(a.pending)
		}
		a.journalDrop(over)
		a.pending = a.pending[over:]
		a.stats.Dropped += over
		a.m.drops.Add(int64(over))
	}
	if len(a.pending) >= a.cfg.BatchSize {
		_ = a.Flush() // cache-and-retry semantics: errors are not fatal
	}
}

// Flush uploads everything awaiting upload, batch by batch, retrying each
// batch up to MaxAttempts times with exponential backoff. On final failure
// the current batch stays frozen in flight for the next Flush and the
// connection is reset.
func (a *Agent) Flush() error {
	for {
		if a.inflight == nil {
			if len(a.pending) == 0 {
				return nil
			}
			a.batchID++
			a.inflightID = a.batchID
			a.inflight = a.pending
			a.pending = nil
			a.inflightSent = false
			a.journalFreeze(a.inflightID, len(a.inflight))
		}
		a.stats.Flushes++
		a.m.flushes.Inc()
		if err := a.uploadWithRetry(); err != nil {
			a.stats.FlushErrs++
			a.m.flushErrs.Inc()
			return err
		}
		a.stats.Uploaded += len(a.inflight)
		a.m.uploads.Add(int64(len(a.inflight)))
		a.journalAck(a.inflightID)
		a.inflight = nil
	}
}

// uploadWithRetry drives one frozen batch through up to MaxAttempts
// transmissions. Transient failures (dial errors, resets, timeouts, lost
// acks) are retried after a backoff against the next replica in the device's
// preference order; permanent failures — the server explicitly rejected us,
// so resending identical bytes cannot succeed anywhere — abort immediately.
//
// The backoff exponent is the persistent failure streak, not the attempt
// number within this call: a success (on any replica) resets it, so an agent
// that fails over to a healthy replica immediately returns to fast uploads,
// while an agent facing a dark tier keeps escalating across Flush calls.
// When one round sweeps every replica without success the final error is
// wrapped in *TierExhaustedError.
func (a *Agent) uploadWithRetry() error {
	failed := 0 // failed attempts within this round
	for attempt := 1; ; attempt++ {
		err := a.flushInflight()
		if err == nil {
			a.streak = 0
			return nil
		}
		a.resetConn()
		failed++
		a.streak++
		var pe *permanentError
		if errors.As(err, &pe) {
			return err
		}
		a.failover()
		if attempt >= a.cfg.MaxAttempts {
			if len(a.replicas) > 1 && failed >= len(a.replicas) {
				a.stats.TierExhausted++
				a.m.tierExhausted.Inc()
				return &TierExhaustedError{Replicas: len(a.replicas), Err: err}
			}
			return err
		}
		a.stats.Retries++
		a.m.retries.Inc()
		d := a.backoff(a.streak)
		a.m.backoffSeconds.Observe(d.Seconds())
		a.cfg.Sleep(d)
	}
}

// backoff returns the jittered delay after the streak-th consecutive failure
// (1-based): Backoff doubled per failure, capped at MaxBackoff, scaled by a
// random factor in [0.5, 1.5) so synchronized agents decorrelate.
func (a *Agent) backoff(streak int) time.Duration {
	d := a.cfg.Backoff << (streak - 1)
	if d <= 0 || d > a.cfg.MaxBackoff {
		d = a.cfg.MaxBackoff
	}
	return time.Duration(float64(d) * (0.5 + a.rng.Float64()))
}

// permanentError marks a server-side rejection that no retry can cure.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func (a *Agent) flushInflight() error {
	if err := a.ensureConn(); err != nil {
		return err
	}
	if !a.inflightSent && a.inflightID <= a.tierLast {
		// This batch has never been transmitted, but its ID collides with
		// a batch some replica already acked — the local sequence state was
		// lost (e.g. a wiped spool) while the tier remembers the device.
		// Renumber above the tier-wide high-water mark before the first
		// send; silently colliding would make dedup swallow fresh samples.
		a.inflightID = a.tierLast + 1
		if a.inflightID > a.batchID {
			a.batchID = a.inflightID
		}
		a.journalFreeze(a.inflightID, len(a.inflight))
	}
	a.inflightSent = true
	b := proto.Batch{BatchID: a.inflightID, Samples: a.inflight}
	a.encBuf = proto.AppendBatch(a.encBuf[:0], &b)
	payload := a.encBuf
	a.conn.SetDeadline(time.Now().Add(a.cfg.IOTimeout))
	if err := a.pc.WriteFrame(proto.FrameBatch, payload); err != nil {
		return fmt.Errorf("agent: send batch: %w", err)
	}
	ft, resp, err := a.pc.ReadFrame()
	if err != nil {
		return fmt.Errorf("agent: read batch ack: %w", err)
	}
	switch ft {
	case proto.FrameBatchAck:
		var ack proto.BatchAck
		if err := proto.DecodeBatchAck(resp, &ack); err != nil {
			return err
		}
		if ack.BatchID != b.BatchID {
			return fmt.Errorf("agent: ack for batch %d, sent %d", ack.BatchID, b.BatchID)
		}
		return nil
	case proto.FrameError:
		var ef proto.ErrorFrame
		if err := proto.DecodeErrorFrame(resp, &ef); err != nil {
			return err
		}
		return &permanentError{fmt.Errorf("agent: server error: %s", ef.Message)}
	default:
		return fmt.Errorf("agent: unexpected frame %s", ft)
	}
}

// ensureConn dials the current replica and performs the hello handshake
// when not connected.
func (a *Agent) ensureConn() error {
	if a.connected {
		return nil
	}
	addr := a.replicas[a.cur]
	conn, err := a.cfg.Dial(addr, a.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("agent: dial %s: %w", addr, err)
	}
	a.stats.Redials++
	a.m.redials.Inc()
	pc := proto.NewConn(conn)
	hello := proto.Hello{
		Version: proto.Version,
		Device:  a.cfg.Device,
		OS:      a.cfg.OS,
		Token:   a.cfg.Token,
		Tier:    uint32(len(a.replicas)),
		Replica: uint32(a.cur),
	}
	conn.SetDeadline(time.Now().Add(a.cfg.IOTimeout))
	if err := pc.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &hello)); err != nil {
		conn.Close()
		return err
	}
	ft, resp, err := pc.ReadFrame()
	if err != nil {
		conn.Close()
		return fmt.Errorf("agent: read hello ack: %w", err)
	}
	switch ft {
	case proto.FrameHelloAck:
		var ack proto.HelloAck
		if err := proto.DecodeHelloAck(resp, &ack); err != nil {
			conn.Close()
			return err
		}
		// Session resume: never number a future batch at or below the
		// tier's last fully-acked ID for this device, even if the local
		// spool (and with it the sequence state) was lost. The high-water
		// mark only ratchets up — a failover target that never saw this
		// device reports 0 and must not erase what its peers acked.
		if ack.LastBatch > a.tierLast {
			a.tierLast = ack.LastBatch
		}
		if a.inflight == nil && a.batchID < a.tierLast {
			a.batchID = a.tierLast
			a.journal(spoolSeq, binary.AppendUvarint(a.spoolBuf[:0], a.batchID))
		}
	case proto.FrameError:
		var ef proto.ErrorFrame
		derr := proto.DecodeErrorFrame(resp, &ef)
		conn.Close()
		if derr != nil {
			return derr
		}
		return &permanentError{fmt.Errorf("agent: server rejected hello: %s", ef.Message)}
	default:
		conn.Close()
		return fmt.Errorf("agent: unexpected frame %s", ft)
	}
	a.conn, a.pc, a.connected = conn, pc, true
	return nil
}

func (a *Agent) resetConn() {
	if a.conn != nil {
		a.conn.Close()
	}
	a.conn, a.pc, a.connected = nil, nil, false
}

// AbandonedError reports that Close could not drain the upload queue: Count
// samples were left behind. With a disk spool they are retained on disk and
// the next incarnation resumes them; without one they are gone.
type AbandonedError struct {
	Count   int   // samples still pending or in flight
	Spooled bool  // true when a disk spool retains them
	Err     error // the final flush failure
}

func (e *AbandonedError) Error() string {
	fate := "lost"
	if e.Spooled {
		fate = "retained in spool"
	}
	return fmt.Sprintf("agent: close: %d samples abandoned (%s): %v", e.Count, fate, e.Err)
}

func (e *AbandonedError) Unwrap() error { return e.Err }

// Close flushes remaining samples (best effort), sends Bye, closes the
// connection, and closes the spool journal. A clean drain returns nil; a
// failed drain returns an *AbandonedError counting the samples left behind.
func (a *Agent) Close() error {
	flushErr := a.Flush()
	if a.connected {
		a.conn.SetDeadline(time.Now().Add(a.cfg.IOTimeout))
		_ = a.pc.WriteFrame(proto.FrameBye, nil)
	}
	a.resetConn()
	var spoolErr error
	if a.spool != nil {
		spoolErr = a.spool.Close()
	}
	if flushErr != nil {
		a.m.abandoned.Add(int64(a.Pending()))
		return &AbandonedError{Count: a.Pending(), Spooled: a.spool != nil, Err: flushErr}
	}
	return spoolErr
}
