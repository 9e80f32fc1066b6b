package collector

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// RotatingSpool is a Sink that writes accepted samples to numbered binary
// trace files in a directory, rotating to a new segment when the current
// one exceeds a size budget — how a long-running collectd keeps individual
// spool files manageable. Segments are named spool-000000.trace,
// spool-000001.trace, ... and each is a complete, independently readable
// trace file.
type RotatingSpool struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	seq     int           // guarded by mu
	file    *os.File      // guarded by mu
	writer  *trace.Writer // guarded by mu
	written int64         // guarded by mu
	samples int64         // guarded by mu
	closed  bool          // guarded by mu
}

// NewRotatingSpool creates the directory if needed and opens the first
// segment lazily on the first sample. maxBytes <= 0 defaults to 256 MiB.
func NewRotatingSpool(dir string, maxBytes int64) (*RotatingSpool, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("collector: spool dir: %w", err)
	}
	return &RotatingSpool{dir: dir, maxBytes: maxBytes}, nil
}

// Sink returns the Sink function to hand to the Server config.
func (sp *RotatingSpool) Sink() Sink { return sp.write }

func (sp *RotatingSpool) write(s *trace.Sample) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return fmt.Errorf("collector: spool closed")
	}
	if sp.writer == nil || sp.written >= sp.maxBytes {
		if err := sp.rotateLocked(); err != nil {
			return err
		}
	}
	if err := sp.writer.Write(s); err != nil {
		return err
	}
	// Re-encoding just to measure would double the work; a cheap
	// upper-bound estimate keeps rotation approximately on budget.
	sp.written += approxSampleBytes(s)
	sp.samples++
	return nil
}

// approxSampleBytes estimates the encoded size of a sample without
// re-encoding it.
func approxSampleBytes(s *trace.Sample) int64 {
	n := 40 + len(s.Apps)*8
	for i := range s.APs {
		n += 14 + len(s.APs[i].ESSID)
	}
	return int64(n)
}

// rotateLocked finishes the current segment and opens the next.
func (sp *RotatingSpool) rotateLocked() error {
	if err := sp.finishLocked(); err != nil {
		return err
	}
	path := filepath.Join(sp.dir, fmt.Sprintf("spool-%06d.trace", sp.seq))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("collector: spool segment: %w", err)
	}
	sp.seq++
	sp.file = f
	sp.writer = trace.NewWriter(f)
	sp.written = 0
	return nil
}

func (sp *RotatingSpool) finishLocked() error {
	if sp.writer == nil {
		return nil
	}
	if err := sp.writer.Flush(); err != nil {
		sp.file.Close() //smuvet:allow closeerr -- flush error is primary; the segment is already lost
		return err
	}
	// A finished segment is a durability boundary (WAL checkpoints build
	// on it), so it must reach the platter, not just the page cache.
	//smuvet:allow lockorder -- sealing must be atomic with the segment switch; it runs on the rare rotate/checkpoint path, not per record
	if err := sp.file.Sync(); err != nil {
		sp.file.Close() //smuvet:allow closeerr -- sync error is primary; the segment is already lost
		return fmt.Errorf("collector: sync segment: %w", err)
	}
	if err := sp.file.Close(); err != nil {
		return fmt.Errorf("collector: close segment: %w", err)
	}
	sp.file, sp.writer = nil, nil
	return nil
}

// Seal finishes (flush + fsync + close) the active segment, if any, and
// fsyncs the spool directory, and returns an opaque state blob for a WAL
// checkpoint: everything spooled so far is durable in segments 0..seq-1,
// directory entries included, and Restore with this blob brings a crashed
// spool back to exactly this boundary. The next sample opens a new segment.
func (sp *RotatingSpool) Seal() ([]byte, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return nil, fmt.Errorf("collector: spool closed")
	}
	if err := sp.finishLocked(); err != nil {
		return nil, err
	}
	if err := wal.SyncDir(sp.dir); err != nil {
		return nil, fmt.Errorf("collector: spool: %w", err)
	}
	return binary.AppendUvarint(nil, uint64(sp.seq)), nil
}

// Restore resets the spool to the boundary recorded by Seal: segment files
// at or past the sealed count are deleted (they hold post-checkpoint
// samples the WAL replay is about to re-deliver, possibly torn). A nil
// state restores the empty spool. Call it before any new sample is sinked —
// Replica passes it to recovery as the restore callback.
func (sp *RotatingSpool) Restore(state []byte) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.writer != nil {
		return fmt.Errorf("collector: restore after writes began")
	}
	var keep uint64
	if len(state) > 0 {
		v, n := binary.Uvarint(state)
		if n <= 0 || n != len(state) {
			return fmt.Errorf("collector: bad spool state blob")
		}
		keep = v
	}
	matches, err := filepath.Glob(filepath.Join(sp.dir, "spool-*.trace"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "spool-%d.trace", &seq); err != nil {
			continue
		}
		if seq >= keep {
			if err := os.Remove(m); err != nil {
				return fmt.Errorf("collector: restore spool: %w", err)
			}
		}
	}
	sp.seq = int(keep)
	return nil
}

// Close flushes and closes the active segment. The spool rejects writes
// afterwards.
func (sp *RotatingSpool) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.closed = true
	return sp.finishLocked()
}

// Segments returns the paths of all finished and active segments, in order.
func (sp *RotatingSpool) Segments() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(sp.dir, "spool-*.trace"))
	if err != nil {
		return nil, err
	}
	return matches, nil
}

// Samples returns how many samples have been spooled.
func (sp *RotatingSpool) Samples() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.samples
}
