package agent

// The disk spool: when Config.SpoolDir is set, every state change of the
// upload queue is journaled to an append-only wal.Log before it takes
// effect in memory — a recorded sample, a batch freeze (pending → in
// flight, with its batch ID), an ack, a cache-overflow drop. Replaying the
// journal therefore rebuilds the exact queue a killed agent process left
// behind: restart resumes with the same pending samples, the same frozen
// in-flight batch under the same batch ID (so the collector's dedup absorbs
// a re-send of an already-acked batch), and the same sequence high-water
// mark (so new batches never reuse an ID). The journal is truncated once
// everything has been acked, and compacted on open, which bounds its size
// to roughly the live queue.

import (
	"encoding/binary"
	"fmt"

	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// Spool journal record types.
const (
	spoolSample byte = 1 // one recorded sample (trace codec)
	spoolFreeze byte = 2 // batch frozen: uvarint batchID, uvarint count
	spoolAck    byte = 3 // in-flight batch acked: uvarint batchID
	spoolDrop   byte = 4 // cache overflow dropped uvarint n oldest pending
	spoolSeq    byte = 5 // batch-ID high-water mark: uvarint batchID
)

// spoolSegmentBytes is the journal's segment rotation size.
const spoolSegmentBytes = 8 << 20

// openSpool opens (or creates) the journal, replays it into the agent's
// queue state and rewrites it as just that queue. Called from New before
// any recording happens.
func (a *Agent) openSpool() error {
	// Process-death durability is the goal for a handset-side spool; the
	// OS writes back on its own schedule, no fsync per sample.
	log, err := wal.Open(a.cfg.SpoolDir, wal.Options{
		SegmentBytes: spoolSegmentBytes,
		Policy:       wal.FsyncOff,
		Metrics:      a.cfg.Metrics,
		MetricsName:  "agent_spool",
	})
	if err != nil {
		return fmt.Errorf("agent: open spool: %w", err)
	}
	a.spool = log
	if err := log.Replay(a.replayRecord); err != nil {
		log.Close() //smuvet:allow closeerr -- replay error is primary; nothing was written yet
		return err
	}
	a.stats.Resumed = a.Pending()
	if err := log.Reset(); err != nil {
		return fmt.Errorf("agent: compact spool: %w", err)
	}
	return a.compacted(func(typ byte, payload []byte) error {
		_, err := log.Append(typ, payload)
		return err
	})
}

// replayRecord applies the journal record at lsn to the queue: pending,
// inflight, inflightID, and the batch-ID high-water mark.
func (a *Agent) replayRecord(lsn wal.LSN, typ byte, payload []byte) error {
	d := proto.NewFieldReader(payload)
	switch typ {
	case spoolSample:
		var sample trace.Sample
		used, err := trace.DecodeSample(payload, &sample)
		if err != nil {
			return fmt.Errorf("agent: spool sample at %s: %w", lsn, err)
		}
		if used != len(payload) {
			return fmt.Errorf("agent: spool sample at %s: trailing bytes", lsn)
		}
		a.pending = append(a.pending, *sample.Clone())
	case spoolFreeze:
		// Counts stay uint64 until checked against the queue: a count past
		// int's range must not turn negative and pass the check.
		id, count := d.Uvarint(), d.Uvarint()
		if err := d.Finish("agent: spool freeze"); err != nil {
			return err
		}
		switch {
		case a.inflight == nil:
			// Flush freezes only a non-empty queue: an empty batch in
			// flight would not survive compaction, which writes it as
			// a freeze in front of no samples.
			if count == 0 || count > uint64(len(a.pending)) {
				return fmt.Errorf("agent: spool freeze at %s: %d samples frozen, %d pending", lsn, count, len(a.pending))
			}
			a.inflight = a.pending[:count:count]
			a.pending = a.pending[count:]
			a.inflightID = id
		case count == uint64(len(a.inflight)):
			// Renumbered in place (a fresh freeze collided with the
			// server's sequence; see flushInflight).
			a.inflightID = id
		default:
			return fmt.Errorf("agent: spool freeze at %s: %d frozen while %d already in flight", lsn, count, len(a.inflight))
		}
		if id > a.batchID {
			a.batchID = id
		}
	case spoolAck:
		id := d.Uvarint()
		if err := d.Finish("agent: spool ack"); err != nil {
			return err
		}
		if a.inflight == nil || id != a.inflightID {
			return fmt.Errorf("agent: spool ack at %s: batch %d not in flight", lsn, id)
		}
		a.inflight = nil
	case spoolDrop:
		n := d.Uvarint()
		if err := d.Finish("agent: spool drop"); err != nil {
			return err
		}
		a.pending = a.pending[min(n, uint64(len(a.pending))):]
	case spoolSeq:
		id := d.Uvarint()
		if err := d.Finish("agent: spool seq"); err != nil {
			return err
		}
		if id > a.batchID {
			a.batchID = id
		}
	default:
		return fmt.Errorf("agent: spool record type %d at %s", typ, lsn)
	}
	return nil
}

// compacted emits the records of a journal that holds just the live queue:
// the in-flight samples, the freeze record, the pending samples, and the
// sequence mark. The payload is reused after emit returns.
func (a *Agent) compacted(emit func(typ byte, payload []byte) error) error {
	var buf []byte
	appendSample := func(s *trace.Sample) error {
		buf = trace.AppendSample(buf[:0], s)
		return emit(spoolSample, buf)
	}
	for i := range a.inflight {
		if err := appendSample(&a.inflight[i]); err != nil {
			return err
		}
	}
	if a.inflight != nil {
		buf = binary.AppendUvarint(binary.AppendUvarint(buf[:0], a.inflightID), uint64(len(a.inflight)))
		if err := emit(spoolFreeze, buf); err != nil {
			return err
		}
	}
	for i := range a.pending {
		if err := appendSample(&a.pending[i]); err != nil {
			return err
		}
	}
	if a.batchID > 0 {
		return emit(spoolSeq, binary.AppendUvarint(buf[:0], a.batchID))
	}
	return nil
}

// journal appends one record, degrading to memory-only operation (with a
// counted error) if the disk is unhappy — an agent must keep sampling even
// with a full or broken flash partition.
func (a *Agent) journal(typ byte, payload []byte) {
	if a.spool == nil {
		return
	}
	if _, err := a.spool.Append(typ, payload); err != nil {
		a.stats.SpoolErrs++
		a.m.spoolErrs.Inc()
		return
	}
	a.m.spoolRecords.Inc()
}

func (a *Agent) journalSample(s *trace.Sample) {
	if a.spool == nil {
		return
	}
	a.spoolBuf = trace.AppendSample(a.spoolBuf[:0], s)
	a.journal(spoolSample, a.spoolBuf)
}

func (a *Agent) journalFreeze(id uint64, count int) {
	if a.spool == nil {
		return
	}
	a.spoolBuf = binary.AppendUvarint(a.spoolBuf[:0], id)
	a.spoolBuf = binary.AppendUvarint(a.spoolBuf, uint64(count))
	a.journal(spoolFreeze, a.spoolBuf)
}

func (a *Agent) journalAck(id uint64) {
	if a.spool == nil {
		return
	}
	a.journal(spoolAck, binary.AppendUvarint(a.spoolBuf[:0], id))
	// Everything acked: truncate the journal down to a sequence mark so
	// the spool never grows past one drain cycle.
	if a.Pending() == 0 {
		if err := a.spool.Reset(); err != nil {
			a.stats.SpoolErrs++
			a.m.spoolErrs.Inc()
			return
		}
		a.journal(spoolSeq, binary.AppendUvarint(a.spoolBuf[:0], a.batchID))
	}
}

func (a *Agent) journalDrop(n int) {
	if a.spool == nil {
		return
	}
	a.journal(spoolDrop, binary.AppendUvarint(a.spoolBuf[:0], uint64(n)))
}
