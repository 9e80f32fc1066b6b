package collector

// Collector durability on top of internal/wal: every batch that passes
// validation and dedup is appended to the WAL as received *before* any
// sample reaches the sink or any ack reaches the agent, so an acked batch is
// always reconstructible. Checkpoints snapshot the per-device dedup/sequence
// state plus an opaque sink-state blob supplied by the sink's owner; recovery
// loads the last checkpoint and replays only the records after it — batches
// older than the checkpoint live in the sink already, batches after it are
// re-sinked, and the rebuilt dedup state absorbs agent retries of anything
// the WAL holds. See DESIGN.md "Durability & recovery" for the crash matrix.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// WAL record types.
const (
	// recBatch is one accepted batch as received: the session's device as
	// a uvarint, then the FrameBatch payload (proto.AppendBatch's bytes).
	recBatch      byte = 1
	recCheckpoint byte = 2 // device-state snapshot + opaque sink state
)

// appendCheckpoint encodes the device map and sink state as a recCheckpoint
// payload. Only durability-relevant fields are snapshotted: dedup state and
// the partial-sink cursor; session counters are per-incarnation.
func appendCheckpoint(dst []byte, devices map[trace.DeviceID]*deviceState, sinkState []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sinkState)))
	dst = append(dst, sinkState...)
	dst = binary.AppendUvarint(dst, uint64(len(devices)))
	// Encode devices in sorted ID order: map iteration order would make
	// checkpoint bytes differ between runs with identical state, defeating
	// byte-level comparison of recovery artifacts.
	ids := make([]trace.DeviceID, 0, len(devices))
	for dev := range devices {
		ids = append(ids, dev)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, dev := range ids {
		st := devices[dev]
		dst = binary.AppendUvarint(dst, uint64(dev))
		var flags byte
		if st.haveLast {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, st.lastBatch)
		dst = binary.AppendUvarint(dst, st.partialID)
		dst = binary.AppendUvarint(dst, uint64(st.partialNext))
		dst = binary.AppendUvarint(dst, uint64(st.samples))
	}
	return dst
}

// decodeCheckpoint decodes a recCheckpoint payload.
func decodeCheckpoint(buf []byte) (sinkState []byte, devices map[trace.DeviceID]*deviceState, err error) {
	d := proto.NewFieldReader(buf)
	sinkState = append([]byte(nil), d.Bytes()...)
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("collector: wal checkpoint: corrupt device count %d", n)
	}
	devices = make(map[trace.DeviceID]*deviceState, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		dev := trace.DeviceID(d.Uvarint())
		flags := d.Byte()
		st := &deviceState{
			haveLast:    flags&1 != 0,
			lastBatch:   d.Uvarint(),
			partialID:   d.Uvarint(),
			partialNext: int(d.Uvarint()),
			samples:     int64(d.Uvarint()),
		}
		devices[dev] = st
	}
	if err := d.Finish("collector: decode wal checkpoint"); err != nil {
		return nil, nil, err
	}
	return sinkState, devices, nil
}

// Recovery reports what a WAL replay rebuilt.
type Recovery struct {
	// Checkpoint is true when a checkpoint record anchored the replay.
	Checkpoint bool
	// Batches counts batch records applied past the checkpoint.
	Batches int64
	// Resinked counts samples re-delivered to the sink during replay.
	Resinked int64
	// Devices is how many devices have rebuilt dedup state.
	Devices int
	// TornBytes is the size of the torn tail record the WAL truncated
	// away on open (0 after a clean shutdown).
	TornBytes int64
}

// String renders the recovery summary for log lines.
func (r *Recovery) String() string {
	return fmt.Sprintf("checkpoint=%v devices=%d batches-replayed=%d samples-resinked=%d torn-bytes=%d",
		r.Checkpoint, r.Devices, r.Batches, r.Resinked, r.TornBytes)
}

// recoverWAL rebuilds server state from the configured WAL. Call it after
// New and before Serve, on a server that has handled no connections. The
// restore callback receives the sink state saved by the last checkpoint —
// nil if there was none — and must reset the sink to exactly that state
// (discarding anything the sink holds past it) before recoverWAL re-sinks
// the post-checkpoint samples; skipping that step double-sinks whatever the
// sink had already absorbed after the checkpoint. Replica pairs it with
// RotatingSpool.Restore.
func (s *Server) recoverWAL(restore func(sinkState []byte) error) (*Recovery, error) {
	w := s.cfg.WAL

	// Pass 1: locate the last checkpoint. The snapshot supersedes every
	// record before it, so only its position and payload matter.
	var (
		ckLSN     wal.LSN
		ckPayload []byte
		found     bool
	)
	err := w.Replay(func(lsn wal.LSN, typ byte, payload []byte) error {
		if typ == recCheckpoint {
			found, ckLSN = true, lsn
			ckPayload = append(ckPayload[:0], payload...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rec := &Recovery{Checkpoint: found, TornBytes: w.Torn()}
	s.mu.Lock()
	defer s.mu.Unlock()
	var state []byte
	if found {
		var devices map[trace.DeviceID]*deviceState
		if state, devices, err = decodeCheckpoint(ckPayload); err != nil {
			return nil, err
		}
		for dev, st := range devices {
			s.devices[dev] = st
			s.stats.Devices.Add(1)
			s.m.devices.Add(1)
		}
	}
	if err := restore(state); err != nil {
		return nil, fmt.Errorf("collector: restore sink: %w", err)
	}

	// Pass 2: apply and re-sink everything past the checkpoint, in log
	// order, by the rule live accept() follows (deviceState.dup and
	// sinkBatchLocked) — a batch that was WAL-appended twice (partial-sink
	// retry) replays once. The samples alias the replayed record, as live
	// ones alias the frame, until the next record.
	var b proto.Batch
	err = w.Replay(func(lsn wal.LSN, typ byte, payload []byte) error {
		if typ != recBatch {
			return nil
		}
		if found && !ckLSN.Before(lsn) {
			return nil // covered by the snapshot (and by the sink state)
		}
		dev, n := binary.Uvarint(payload)
		if n <= 0 {
			return fmt.Errorf("collector: wal batch at %s: bad device", lsn)
		}
		if err := proto.DecodeBatchAlias(payload[n:], &b); err != nil {
			return fmt.Errorf("collector: wal batch at %s: %w", lsn, err)
		}
		st := s.deviceLocked(trace.DeviceID(dev))
		if st.dup(b.BatchID) {
			return nil
		}
		sunk, err := s.sinkBatchLocked(st, &b)
		if err != nil {
			return fmt.Errorf("collector: recovery sink: %w", err)
		}
		rec.Batches++
		rec.Resinked += int64(sunk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.Devices = len(s.devices)
	s.m.recoveries.Inc()
	s.m.recBatches.Add(rec.Batches)
	s.m.resinked.Add(rec.Resinked)
	return rec, nil
}

// checkpoint snapshots the per-device state plus the sink state returned by
// sinkState (called under the server lock, so no sample lands in the sink
// between the blob and the snapshot), appends it to the WAL, syncs, and
// drops sealed WAL segments the checkpoint has made obsolete. The sink
// owner must make the sink durable up to this instant before returning the
// blob — for a RotatingSpool that means sealing the active segment, which
// Replica does through RotatingSpool.Seal.
func (s *Server) checkpoint(sinkState func() ([]byte, error)) error {
	w := s.cfg.WAL
	s.mu.Lock()
	defer s.mu.Unlock()
	state, err := sinkState()
	if err != nil {
		return fmt.Errorf("collector: checkpoint sink: %w", err)
	}
	//smuvet:allow lockorder -- a checkpoint is a deliberate stop-the-world snapshot: the device map, sink state, and WAL record must be one atomic cut, so the fsync stays under the lock
	lsn, err := w.Append(recCheckpoint, appendCheckpoint(nil, s.devices, state))
	if err != nil {
		return err
	}
	// A checkpoint must be durable before retention may drop the segments
	// it supersedes, whatever the append-path fsync policy says.
	//smuvet:allow lockorder -- same atomic-cut argument as the Append above; checkpoints are rare and may pause accepts
	if err := w.Sync(); err != nil {
		return err
	}
	if _, err := w.TruncateBefore(lsn); err != nil {
		return err
	}
	s.m.checkpoints.Inc()
	return nil
}
