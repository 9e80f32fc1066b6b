// Package tiermerge unions the per-replica trace spools of a multi-collector
// tier into one deterministic, exactly-once sample stream.
//
// Replicas share nothing: each deduplicates agent batches against only its
// own state, so a batch committed by a dying replica and retried against its
// failover successor is spooled by both. Those cross-replica duplicates are
// the one anomaly failover is allowed to create, and this package is where
// they die: the union is keyed by (device, time) — a device records at most
// one sample per timestamp — and a key seen on two replicas must carry
// byte-identical payloads, or the tier has diverged and the merge fails
// loudly rather than pick a side. A key seen twice within a single replica's
// spool is a double-sink: the per-replica exactly-once machinery (WAL,
// dedup, partial-sink resume) is supposed to make that impossible, so the
// merge refuses to launder it.
//
// Output is emitted in (device, time) order, which makes it a pure function
// of the sample set: any enumeration order of the replica directories, and
// any distribution of the samples across them, produces the identical
// stream.
//
// The merge is an external sort, so its memory does not grow with the
// campaign. Open reads every replica's segments, canonicalises each record
// (decode, then trace.AppendSample) into a chunk of at most chunkBytes,
// sorts the chunk by (device, time, replica) and spills it as a sorted run
// into a private scratch directory under TMPDIR. A k-way heap merge over the
// runs then sees every copy of a key side by side, checks them, and writes
// the unique records to one merged trace file. Every error therefore
// surfaces before the first sample is emitted. (*Merged).Source streams that
// file any number of times, which is the restartable-stream contract
// analysis.Source requires; Close removes the directory.
package tiermerge

import (
	"bufio"
	"bytes"
	"cmp"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"smartusage/internal/analysis"
	"smartusage/internal/trace"
)

// chunkBytes bounds the canonical record bytes Open holds while it reads the
// spools: one arena of this capacity, plus a 32-byte index entry per record
// in it. When the next record does not fit, the chunk is sorted and spilled
// as one run. 8 MiB holds 40-100k campaign samples (80-200 encoded bytes
// each), so a run costs one sort of a short index and one sequential write.
const chunkBytes = 8 << 20

// fanIn bounds how many runs one merge pass reads at once, each through its
// own open file and a runBufBytes read buffer. Past it, runs are merged in
// groups of fanIn into longer runs first, so a campaign of any length merges
// with at most fanIn files open and fanIn*runBufBytes of read buffers.
const fanIn = 64

// runBufBytes is the buffer of one run's reader or writer.
const runBufBytes = 32 << 10

// Stats describes one merge.
type Stats struct {
	Replicas     int   // spool directories merged
	Segments     int   // segment files read across all replicas
	Read         int   // samples read across all replicas
	Unique       int   // distinct samples emitted
	FailoverDups int   // cross-replica duplicates absorbed
	Runs         int   // sorted runs spilled from the read chunks
	SpillBytes   int64 // bytes written to runs, intermediate merge passes included
}

// mergeKey identifies a sample: a device records at most one sample per
// timestamp, so (device, time) is the tier-wide identity.
type mergeKey struct {
	dev trace.DeviceID
	t   int64
}

func (a mergeKey) compare(b mergeKey) int {
	if c := cmp.Compare(a.dev, b.dev); c != 0 {
		return c
	}
	return cmp.Compare(a.t, b.t)
}

// Merged is one merge of a replica directory set, held as a (device,
// time)-sorted trace file in a private scratch directory until Close.
type Merged struct {
	Stats Stats

	dir  string // the scratch directory
	path string // the merged trace file in it
}

// Open merges the spool segments (spool-*.trace) under each replica
// directory. Intra-replica duplicates and cross-replica payload conflicts
// are errors, reported before anything can be streamed. A directory with no
// segments contributes nothing — a replica that never saw traffic is a
// healthy tier member, not a failure. The caller must Close the result.
func Open(dirs []string) (*Merged, error) {
	return open(dirs, chunkBytes, fanIn)
}

// open is Open with the chunk size and fan-in as parameters, so tests can
// drive the spill and multi-pass paths with small inputs.
func open(dirs []string, chunk, fan int) (*Merged, error) {
	tmp, err := os.MkdirTemp("", "tiermerge-*")
	if err != nil {
		return nil, fmt.Errorf("tiermerge: scratch dir: %w", err)
	}
	m := &Merged{Stats: Stats{Replicas: len(dirs)}, dir: tmp, path: filepath.Join(tmp, "merged.trace")}
	s := &sorter{m: m, chunk: chunk}
	runs, err := s.spill(dirs)
	for err == nil && len(runs) > fan {
		var run string
		if run, err = s.mergePass(runs[:fan]); err == nil {
			runs = append(runs[fan:], run)
		}
	}
	if err == nil {
		err = s.final(dirs, runs)
	}
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return m, nil
}

// Source streams the merged samples in (device, time) order, one decode per
// sample, as many times as it is called. The *trace.Sample passed to the
// callback is reused; the callback must copy retained data.
func (m *Merged) Source() analysis.Source { return analysis.FileSource(m.path) }

// Close removes the scratch directory; Source must not be used afterwards.
func (m *Merged) Close() error {
	if err := os.RemoveAll(m.dir); err != nil {
		return fmt.Errorf("tiermerge: remove scratch: %w", err)
	}
	return nil
}

// MergeDirs merges dirs as Open does and streams the deduplicated samples to
// emit once, in (device, time) order. The *trace.Sample passed to emit is
// reused; emit must copy retained data.
func MergeDirs(dirs []string, emit func(*trace.Sample) error) (*Stats, error) {
	m, err := Open(dirs)
	if err != nil {
		return nil, err
	}
	err = m.Source()(emit)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	st := m.Stats
	return &st, nil
}

// entry indexes one canonical record in the chunk arena.
type entry struct {
	key     mergeKey
	off, n  uint32
	replica uint32
}

// sorter is Open's working state: the read chunk and the run being written.
type sorter struct {
	m     *Merged
	chunk int // arena capacity

	arena []byte  // the chunk's canonical records, back to back
	idx   []entry // one entry per record in arena
	enc   []byte  // the record being canonicalised
	bw    *bufio.Writer
	hdr   []byte
	nruns int
}

// spill reads every replica's segments in order into chunks and spills each
// chunk as a sorted run, returning the run files.
func (s *sorter) spill(dirs []string) ([]string, error) {
	var runs []string
	flush := func() error {
		if len(s.idx) == 0 {
			return nil
		}
		slices.SortFunc(s.idx, func(a, b entry) int {
			if c := a.key.compare(b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.replica, b.replica)
		})
		f, run, err := s.createRun()
		if err != nil {
			return err
		}
		for _, e := range s.idx {
			s.put(e.key, e.replica, s.arena[e.off:e.off+e.n])
		}
		if err := s.closeRun(f); err != nil {
			return err
		}
		runs = append(runs, run)
		s.m.Stats.Runs++
		s.arena, s.idx = s.arena[:0], s.idx[:0]
		return nil
	}
	for ri, dir := range dirs {
		segs, err := filepath.Glob(filepath.Join(dir, "spool-*.trace"))
		if err != nil {
			return runs, fmt.Errorf("tiermerge: list %s: %w", dir, err)
		}
		sort.Strings(segs)
		for _, seg := range segs {
			s.m.Stats.Segments++
			if err := readSegment(seg, func(smp *trace.Sample) error {
				s.m.Stats.Read++
				s.enc = trace.AppendSample(s.enc[:0], smp)
				if s.arena == nil {
					s.arena = make([]byte, 0, s.chunk)
				}
				if len(s.arena)+len(s.enc) > cap(s.arena) {
					if err := flush(); err != nil {
						return err
					}
				}
				s.idx = append(s.idx, entry{
					key:     mergeKey{smp.Device, smp.Time},
					off:     uint32(len(s.arena)),
					n:       uint32(len(s.enc)),
					replica: uint32(ri),
				})
				s.arena = append(s.arena, s.enc...)
				return nil
			}); err != nil {
				return runs, err
			}
		}
	}
	err := flush()
	s.arena, s.idx = nil, nil // the merge passes hold no chunk
	return runs, err
}

// createRun creates the next run file, to be filled through put and ended by
// closeRun.
func (s *sorter) createRun() (*os.File, string, error) {
	path := filepath.Join(s.m.dir, fmt.Sprintf("run-%06d", s.nruns))
	s.nruns++
	f, err := os.Create(path)
	if err != nil {
		return nil, "", fmt.Errorf("tiermerge: create run: %w", err)
	}
	if s.bw == nil {
		s.bw = bufio.NewWriterSize(f, runBufBytes)
	} else {
		s.bw.Reset(f)
	}
	return f, path, nil
}

// put appends one record to the run being written: its key, its replica and
// its canonical bytes. bufio.Writer errors are sticky, so closeRun's Flush
// reports the first failed write.
func (s *sorter) put(k mergeKey, replica uint32, rec []byte) {
	s.hdr = binary.AppendUvarint(s.hdr[:0], uint64(k.dev))
	s.hdr = binary.AppendVarint(s.hdr, k.t)
	s.hdr = binary.AppendUvarint(s.hdr, uint64(replica))
	s.hdr = binary.AppendUvarint(s.hdr, uint64(len(rec)))
	s.bw.Write(s.hdr)
	s.bw.Write(rec)
	s.m.Stats.SpillBytes += int64(len(s.hdr) + len(rec))
}

func (s *sorter) closeRun(f *os.File) error {
	err := s.bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("tiermerge: write run: %w", err)
	}
	return nil
}

// mergePass merges runs into one longer run, keeping every record, and
// removes them.
func (s *sorter) mergePass(runs []string) (string, error) {
	f, run, err := s.createRun()
	if err != nil {
		return "", err
	}
	err = mergeRuns(runs, func(c *cursor) error {
		s.put(c.key, c.replica, c.rec)
		return nil
	})
	return run, errors.Join(err, s.closeRun(f), removeAll(runs))
}

// final merges runs into the merged trace file: the first copy of each key
// is written, and every further copy must come from a later replica and
// carry the same bytes.
func (s *sorter) final(dirs []string, runs []string) error {
	f, err := os.Create(s.m.path)
	if err != nil {
		return fmt.Errorf("tiermerge: create merged trace: %w", err)
	}
	w := trace.NewWriter(f)
	var (
		st                = &s.m.Stats
		key               mergeKey
		first             []byte // the kept copy's bytes
		firstRep, lastRep uint32
	)
	err = mergeRuns(runs, func(c *cursor) error {
		if st.Unique > 0 && c.key == key {
			if c.replica == lastRep {
				return fmt.Errorf("tiermerge: replica %d (%s) spooled device %s time %d twice: double-sink",
					c.replica, dirs[c.replica], key.dev, key.t)
			}
			if !bytes.Equal(first, c.rec) {
				return fmt.Errorf("tiermerge: replicas %d and %d disagree on device %s time %d: tier diverged",
					firstRep, c.replica, key.dev, key.t)
			}
			lastRep = c.replica
			st.FailoverDups++
			return nil
		}
		key, firstRep, lastRep = c.key, c.replica, c.replica
		first = append(first[:0], c.rec...)
		st.Unique++
		return w.WriteEncoded(c.rec)
	})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("tiermerge: write merged trace: %w", cerr)
	}
	return errors.Join(err, removeAll(runs))
}

func removeAll(paths []string) error {
	var errs []error
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			errs = append(errs, fmt.Errorf("tiermerge: remove run: %w", err))
		}
	}
	return errors.Join(errs...)
}

// cursor reads one run's records in order; rec is valid until next.
type cursor struct {
	br      *bufio.Reader
	key     mergeKey
	replica uint32
	rec     []byte
}

// next reads the run's next record into the cursor; it reports false at
// the run's end.
func (c *cursor) next() (bool, error) {
	dev, err := binary.ReadUvarint(c.br)
	if err == io.EOF {
		return false, nil // the run ends at a record boundary
	}
	t, err1 := binary.ReadVarint(c.br)
	rep, err2 := binary.ReadUvarint(c.br)
	n, err3 := binary.ReadUvarint(c.br)
	if err = errors.Join(err, err1, err2, err3); err == nil && n > trace.MaxSampleSize {
		err = fmt.Errorf("record of %d bytes", n)
	}
	if err == nil {
		c.rec = slices.Grow(c.rec[:0], int(n))[:n]
		_, err = io.ReadFull(c.br, c.rec)
	}
	if err != nil {
		return false, fmt.Errorf("tiermerge: read run: %w", err)
	}
	c.key, c.replica = mergeKey{trace.DeviceID(dev), t}, uint32(rep)
	return true, nil
}

// cursorHeap orders cursors by their current record's (device, time,
// replica).
type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if c := h[i].key.compare(h[j].key); c != 0 {
		return c < 0
	}
	return h[i].replica < h[j].replica
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// mergeRuns reads the runs in one k-way pass and calls fn with a cursor on
// every record, in (device, time, replica) order.
func mergeRuns(runs []string, fn func(*cursor) error) error {
	h := make(cursorHeap, 0, len(runs))
	for _, run := range runs {
		f, err := os.Open(run)
		if err != nil {
			return fmt.Errorf("tiermerge: open run: %w", err)
		}
		defer f.Close()
		c := &cursor{br: bufio.NewReaderSize(f, runBufBytes)}
		ok, err := c.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := h[0]
		if err := fn(c); err != nil {
			return err
		}
		ok, err := c.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

func readSegment(path string, fn func(*trace.Sample) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("tiermerge: open segment: %w", err)
	}
	defer f.Close()
	if err := trace.NewReader(f).ReadAll(fn); err != nil {
		return fmt.Errorf("tiermerge: %s: %w", path, err)
	}
	return nil
}
