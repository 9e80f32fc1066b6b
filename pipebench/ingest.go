package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/obs"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// fsyncPolicy is the WAL policy of every collector: batch, i.e. group
// commit, durable before ack.
const fsyncPolicy = wal.FsyncRecord

// tier is an in-process collector tier: each replica is a WAL-backed
// collector spooling to its own RotatingSpool, all reporting into one obs
// registry — the series an operator scrapes.
type tier struct {
	reg       *obs.Registry
	addrs     []string
	spoolDirs []string
	servers   []*collector.Server
	wals      []*wal.Log
	spools    []*collector.RotatingSpool

	stop    context.CancelFunc
	served  sync.WaitGroup
	errs    chan error // one Serve result per replica
	drained bool
}

// startTier brings up replicas collectors under dir, listening on loopback.
func startTier(dir string, replicas int, wrap func(collector.Sink) collector.Sink) (*tier, error) {
	ctx, cancel := context.WithCancel(context.Background())
	t := &tier{reg: obs.NewRegistry(), stop: cancel, errs: make(chan error, replicas)}
	for i := 0; i < replicas; i++ {
		if err := t.add(ctx, filepath.Join(dir, fmt.Sprintf("replica-%d", i)), i, replicas, wrap); err != nil {
			return nil, errors.Join(err, t.drain())
		}
	}
	return t, nil
}

func (t *tier) add(ctx context.Context, dir string, id, replicas int, wrap func(collector.Sink) collector.Sink) error {
	spoolDir := filepath.Join(dir, "spool")
	sp, err := collector.NewRotatingSpool(spoolDir, 0)
	if err != nil {
		return err
	}
	t.spools = append(t.spools, sp)
	t.spoolDirs = append(t.spoolDirs, spoolDir)
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		Policy:      fsyncPolicy,
		Metrics:     t.reg,
		MetricsName: fmt.Sprintf("collector-%d", id),
	})
	if err != nil {
		return err
	}
	t.wals = append(t.wals, log)
	sink := sp.Sink()
	if wrap != nil {
		sink = wrap(sink)
	}
	cfg := collector.Config{
		Addr:    "127.0.0.1:0",
		Sink:    sink,
		WAL:     log,
		Metrics: t.reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pipebench: "+format+"\n", args...)
		},
	}
	if replicas > 1 {
		cfg.ReplicaID, cfg.TierReplicas = id, replicas
	}
	srv, err := collector.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	t.servers = append(t.servers, srv)
	t.addrs = append(t.addrs, srv.Addr().String())
	t.served.Add(1)
	go func() {
		defer t.served.Done()
		t.errs <- srv.Serve(ctx)
	}()
	return nil
}

// drain stops accepting, waits for every connection to finish, then closes
// the WALs and seals the spools. It is idempotent.
func (t *tier) drain() error {
	if t.drained {
		return nil
	}
	t.drained = true
	t.stop()
	t.served.Wait()
	close(t.errs)
	var errs []error
	for err := range t.errs {
		errs = append(errs, err)
	}
	for _, l := range t.wals {
		errs = append(errs, l.Close())
	}
	for _, sp := range t.spools {
		errs = append(errs, sp.Close())
	}
	return errors.Join(errs...)
}

// tierCounts are one round's server-side ledger entries.
type tierCounts struct {
	accepted, dups, spooled int64
}

// tally adds the tier's counters and spool sizes to m after a drain and
// returns the round's ledger entries.
func (t *tier) tally(m *meter) (tierCounts, error) {
	snap := t.reg.Snapshot()
	m.frames += snap.CounterTotal("collector_batch_frames_total")
	m.batchBytes += snap.CounterTotal("collector_batch_bytes_total")
	m.walAppends += snap.CounterTotal("wal_appends_total")
	m.walFsyncs += snap.CounterTotal("wal_fsyncs_total")
	m.walBytes += snap.CounterTotal("wal_append_bytes_total")
	for _, h := range snap.Histograms {
		if h.Name == "collector_sink_seconds" {
			m.sinkSeconds += h.Sum
		}
	}
	tc := tierCounts{
		accepted: snap.CounterTotal("collector_samples_total"),
		dups:     snap.CounterTotal("collector_dup_batches_total"),
	}
	for _, sp := range t.spools {
		tc.spooled += sp.Samples()
		segs, err := sp.Segments()
		if err != nil {
			return tierCounts{}, err
		}
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				return tierCounts{}, err
			}
			m.spoolBytes += fi.Size()
		}
	}
	m.spooled += tc.spooled
	return tc, nil
}

// device is one handset's uploads: its samples trace-encoded back to back
// in time order — nothing for the garbage collector to trace — and the
// number of samples in each batch it uploads.
type device struct {
	id      trace.DeviceID
	os      trace.OS
	enc     []byte
	batches []int
}

// fleet is the client side of one replay.
type fleet struct {
	acks, first           []time.Duration
	recordBusy, flushWait time.Duration
	sessions, batches     int
	failed                int
	recorded, uploaded    int64
	errs                  []string
}

// replay drives the closed loop: slots connection slots each take the next
// device in ID order and replay its uploads through real agents, either
// all batches on one session or each batch on a fresh session.
func replay(addrs []string, devs []device, slots int, sessionPerBatch bool, reg *obs.Registry, tracer *obs.Tracer) *fleet {
	var next atomic.Int64
	per := make([]fleet, slots)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(devs) {
					return
				}
				d := &devs[i]
				enc := d.enc
				if !sessionPerBatch {
					per[s].session(addrs, d, &enc, d.batches, s, reg, tracer)
					continue
				}
				for b := range d.batches {
					per[s].session(addrs, d, &enc, d.batches[b:b+1], s, reg, tracer)
				}
			}
		}(s)
	}
	wg.Wait()
	f := &fleet{}
	for i := range per {
		p := &per[i]
		f.acks = append(f.acks, p.acks...)
		f.first = append(f.first, p.first...)
		f.recordBusy += p.recordBusy
		f.flushWait += p.flushWait
		f.sessions += p.sessions
		f.batches += p.batches
		f.failed += p.failed
		f.recorded += p.recorded
		f.uploaded += p.uploaded
		f.errs = append(f.errs, p.errs...)
	}
	return f
}

// session is one agent lifetime: New, then per batch the batch's samples
// decoded from *enc and recorded, and one timed Flush; then Close.
func (f *fleet) session(addrs []string, d *device, enc *[]byte, batches []int, slot int, reg *obs.Registry, tracer *obs.Tracer) {
	sp := tracer.Start("agent:session").OnTID(slot+1).Arg("parent", "bench:ingest")
	defer sp.End()
	f.sessions++
	a, err := agent.New(agent.Config{
		Servers:   addrs,
		Device:    d.id,
		OS:        d.os,
		BatchSize: 1 << 30, // flush by hand, so each batch is one timed upload
		Dial:      dialFrom(d.id),
		Metrics:   reg,
	})
	if err != nil {
		f.fail(len(batches), err)
		return
	}
	var s trace.Sample
	for i, k := range batches {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			// The ESSIDs alias enc, which stays unchanged while agents hold them.
			n, err := trace.DecodeSampleAlias(*enc, &s)
			if err != nil {
				panic(fmt.Sprintf("replaying device %s: %v", d.id, err)) // enc is our own encoding
			}
			*enc = (*enc)[n:]
			a.Record(&s)
		}
		t1 := time.Now()
		err := a.Flush()
		lat := time.Since(t1)
		f.recordBusy += t1.Sub(t0)
		f.flushWait += lat
		f.acks = append(f.acks, lat)
		if i == 0 {
			f.first = append(f.first, lat)
		}
		f.batches++
		if err != nil {
			f.fail(1, err)
		}
	}
	if err := a.Close(); err != nil {
		f.fail(1, err)
	}
	st := a.Stats()
	f.recorded += int64(st.Recorded)
	f.uploaded += int64(st.Uploaded)
}

// dialFrom dials from a loopback address of the device's own, as a handset
// connects from its own address. Were every session to share 127.0.0.1,
// the TIME_WAIT sockets of thousands of short sessions would exhaust its
// ephemeral ports, and each connect would pay a search through them that
// grows with however many an earlier run left behind.
func dialFrom(id trace.DeviceID) func(addr string, timeout time.Duration) (net.Conn, error) {
	local := &net.TCPAddr{IP: net.IPv4(127, 1, byte(id>>8), byte(id))}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		d := net.Dialer{Timeout: timeout, LocalAddr: local}
		return d.Dial("tcp", addr)
	}
}

func (f *fleet) fail(batches int, err error) {
	f.failed += batches
	if len(f.errs) < 8 {
		f.errs = append(f.errs, err.Error())
	}
}

// warmUp replays one device into a throwaway collector, so the timed part
// meets a process that has already served traffic.
func warmUp(dir string, d device, slots int, sessionPerBatch bool) error {
	t, err := startTier(dir, 1, nil)
	if err != nil {
		return err
	}
	f := replay(t.addrs, []device{d}, slots, sessionPerBatch, t.reg, nil)
	err = t.drain()
	if f.failed > 0 {
		err = errors.Join(err, fmt.Errorf("warm-up: %d batches failed: %v", f.failed, f.errs))
	}
	return errors.Join(err, os.RemoveAll(dir))
}

// ingest runs the ingest phase: the fleet replays devs into t, then the
// fleet's client-side totals join the meter.
func (m *meter) ingest(t *tier, devs []device, sessionPerBatch bool) *fleet {
	var f *fleet
	_ = m.during("ingest", func() error { // replay reports failures in f, never an error
		f = replay(t.addrs, devs, m.slots, sessionPerBatch, t.reg, m.tracer)
		return nil
	})
	m.acks = append(m.acks, f.acks...)
	m.first = append(m.first, f.first...)
	m.recordBusy += f.recordBusy
	m.flushWait += f.flushWait
	m.sessions += f.sessions
	m.uploaded += f.uploaded
	m.attempted += f.batches
	m.failed += f.failed
	for _, e := range f.errs {
		m.failures = append(m.failures, "upload: "+e)
	}
	return f
}
