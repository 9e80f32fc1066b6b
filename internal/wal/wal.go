// Package wal is a segment-based append-only write-ahead log shared by the
// collector (batch durability + dedup recovery) and the agent (disk spool).
// Records survive process death: every append is flushed to the OS before it
// is acknowledged. Under FsyncRecord, the collector's policy, they survive
// power loss as well: each append is acknowledged only once a group-commit
// round has synced it. FsyncOff, the agent journal's, leaves write-back to
// the OS.
//
// On-disk layout: a directory of numbered segment files, each starting with
// a 5-byte magic header followed by records. One record is
//
//	type byte | uvarint payload length | payload | CRC-32C(type+payload), BE
//
// identical in spirit to the proto frame format, so a torn or bit-flipped
// record is a detected failure. Open repairs a torn tail — a record in the
// final segment that is incomplete or fails its CRC at end of file is the
// residue of a crash mid-append and is truncated away. Corruption anywhere
// else (a sealed segment, or mid-segment with intact records after it) is
// not a crash artifact and stops Replay with ErrCorrupt.
//
// Under FsyncRecord every group-commit round syncs with fdatasync(2), which
// writes the file's data and the metadata needed to read it back (the size
// and block allocation, when they changed) but not the timestamps. A leader
// whose records have outgrown the active segment's zero padding first
// writes the next padStep bytes of zeros after them, so its own fdatasync
// commits the new size once. The rounds after it end inside that padding:
// they overwrite blocks the file already has, below a size already on disk,
// so fdatasync has no metadata left to commit and the file system pays no
// journal commit for a growing file on every round. Elsewhere than Linux
// the round falls back to fsync. Only the active segment is padded: seal
// and Close truncate the padding before their sync, so a sealed segment is
// exactly its records. No intact record starts with a run of zeros (the
// CRC-32C of a lone zero type byte is not zero), so Open reads a zero tail
// after the last record as the end of the log: it is truncated, and not
// counted as torn.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"smartusage/internal/obs"
)

// segMagic opens every segment file.
var segMagic = []byte("SWAL1")

// MaxRecordSize bounds one record payload; collector batches are capped well
// below this by the proto frame limit.
const MaxRecordSize = 8 << 20

// padStep is how much zero padding one step lays past an FsyncRecord
// segment's records.
const padStep = 1 << 20

// zeroPad is the source of every padding write. It is never written, so its
// pages stay unbacked.
var zeroPad [padStep]byte

// Fsync policies.
type Policy int

const (
	// FsyncRecord syncs the segment file after every append: an
	// acknowledged record survives power loss. This is the collector's
	// policy — an acked batch must never be lost. Concurrent appenders
	// group-commit: one sync covers every record flushed before it
	// started, so N connections committing together pay ~1 sync, not N
	// (each Append still blocks until a sync covers its own record). A
	// round syncs with fdatasync, inside the segment's zero padding (see
	// the package comment).
	FsyncRecord Policy = iota
	// FsyncOff never syncs explicitly (the OS writes back on its own
	// schedule). Appends still survive process death, not power loss.
	FsyncOff
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FsyncRecord:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB).
	SegmentBytes int64
	// Policy is the fsync policy (default FsyncRecord).
	Policy Policy
	// Hook, when non-nil, is consulted at crash points ("wal-append",
	// "pre-fsync") for fault injection; a non-nil return aborts the
	// operation as a crash would. See faultnet.CrashPlan. It is also
	// consulted at "group-fsync" by a group-commit leader immediately
	// before its sync (fsync or fdatasync), with the log lock released —
	// a hook that sleeps there models a stalled disk while appenders keep
	// queueing behind the commit; a non-nil return fails that commit
	// round.
	Hook func(point string) error
	// Metrics, when non-nil, receives wal_* counters (appends, bytes,
	// syncs, rotations, torn-tail bytes) and the wal_sync_seconds
	// histogram, labeled wal=MetricsName.
	Metrics *obs.Registry
	// MetricsName distinguishes multiple logs in one registry (e.g.
	// "collector" vs "agent_spool"). Default "wal".
	MetricsName string
}

// syncBuckets bound wal_sync_seconds: DefBuckets plus the tens of
// microseconds a sync takes on a local disk, below their first bound.
var syncBuckets = append([]float64{1e-5, 2.5e-5, 5e-5}, obs.DefBuckets...)

// walMetrics holds the log's instruments; all fields are nil (no-op) when
// Options.Metrics is unset.
type walMetrics struct {
	appends     *obs.Counter
	bytes       *obs.Counter
	fsyncs      *obs.Counter
	rotations   *obs.Counter
	torn        *obs.Counter
	syncSeconds *obs.Histogram
	// timed is set when a registry is present: the clock is read around a
	// sync only then.
	timed bool
}

func newWALMetrics(reg *obs.Registry, name string) walMetrics {
	if name == "" {
		name = "wal"
	}
	l := obs.L("wal", name)
	reg.SetHelp("wal_appends_total", "Records appended to the write-ahead log.")
	reg.SetHelp("wal_append_bytes_total", "Framed bytes appended to the write-ahead log.")
	reg.SetHelp("wal_fsyncs_total", "Syncs (fsync or fdatasync) committing WAL records or sealing segments.")
	reg.SetHelp("wal_rotations_total", "Segment rotations.")
	reg.SetHelp("wal_torn_bytes_total", "Torn-tail bytes truncated during open-time repair.")
	reg.SetHelp("wal_sync_seconds", "Latency of each WAL segment sync (fsync or fdatasync).")
	return walMetrics{
		appends:     reg.Counter("wal_appends_total", l),
		bytes:       reg.Counter("wal_append_bytes_total", l),
		fsyncs:      reg.Counter("wal_fsyncs_total", l),
		rotations:   reg.Counter("wal_rotations_total", l),
		torn:        reg.Counter("wal_torn_bytes_total", l),
		syncSeconds: reg.Histogram("wal_sync_seconds", syncBuckets, l),
		timed:       reg != nil,
	}
}

// Errors.
var (
	// ErrCorrupt marks a record that fails its CRC (or frames past the
	// payload bound) somewhere other than the repairable tail.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// LSN is a log sequence number: a position in the log, ordered first by
// segment then by byte offset of the record within it.
type LSN struct {
	Seg uint64 // segment sequence number
	Off int64  // byte offset of the record's type byte
}

// Before reports whether a precedes b in the log.
func (a LSN) Before(b LSN) bool {
	if a.Seg != b.Seg {
		return a.Seg < b.Seg
	}
	return a.Off < b.Off
}

func (a LSN) String() string { return fmt.Sprintf("%d:%d", a.Seg, a.Off) }

// sealed describes one finished (read-only) segment.
type sealed struct {
	seq   uint64
	bytes int64
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	m    walMetrics // instruments; nil fields no-op when metrics are off

	mu       sync.Mutex
	sealedSt []sealed      // guarded by mu
	f        *os.File      // guarded by mu
	bw       *bufio.Writer // guarded by mu
	// rc is f's descriptor, captured when the segment opens, through which
	// a group-commit round reaches datasync. guarded by mu
	rc syscall.RawConn
	// seq is the current segment sequence. guarded by mu
	seq uint64
	// off is the current segment's record bytes (written incl. header).
	// guarded by mu
	off int64
	// padEnd is where the zero padding written past the current segment's
	// records ends; 0 for an unpadded segment. guarded by mu
	padEnd  int64
	records int64 // guarded by mu
	// torn counts bytes truncated during Open's tail repair. guarded by mu
	torn int64
	// writeSeq numbers appends as they are flushed to the OS; durableSeq is
	// the highest writeSeq covered by an fsync. Records in sealed segments
	// are synced at seal time, so after fsyncing the active segment at a
	// moment when writeSeq == S, every append numbered <= S is durable.
	// durableSeq < writeSeq is the old "dirty" state. guarded by mu
	writeSeq   int64
	durableSeq int64
	// syncing marks a group-commit leader's sync in flight (running with
	// mu released so appenders keep writing behind it). guarded by mu
	syncing bool
	// syncedCond is broadcast whenever durableSeq advances or the log
	// closes, waking group-commit followers.
	syncedCond *sync.Cond
	closed     bool  // guarded by mu
	failed     error // of a sync that left records unsynced (usableLocked); guarded by mu
	// ds is the datasync callback, built once by Open; only the round's
	// leader, the one that set syncing, runs it.
	ds dsync
}

// Open opens (creating if needed) the log in dir, repairing a torn tail
// record left by a crash mid-append. The returned log appends after the last
// intact record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{dir: dir, opts: opts, m: newWALMetrics(opts.Metrics, opts.MetricsName)}
	l.syncedCond = sync.NewCond(&l.mu)
	l.ds.init()
	seqs, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		// As after every new segment: the first one's directory entry is
		// made durable too.
		if err := l.openSegmentLocked(0); err != nil {
			return nil, err
		}
		if err := SyncDir(dir); err != nil {
			return nil, errors.Join(err, l.f.Close())
		}
	} else {
		// All but the last are sealed; the last is repaired and reopened
		// for appending.
		for _, seq := range seqs[:len(seqs)-1] {
			fi, err := os.Stat(l.segPath(seq))
			if err != nil {
				return nil, fmt.Errorf("wal: stat segment: %w", err)
			}
			l.sealedSt = append(l.sealedSt, sealed{seq: seq, bytes: fi.Size()})
		}
		last := seqs[len(seqs)-1]
		size, n, err := repairTail(l.segPath(last))
		if err != nil {
			return nil, err
		}
		l.torn = n
		l.m.torn.Add(n)
		// Not O_APPEND: WriteAt, which lays the padding, refuses such a
		// file. The writer starts at the repaired end instead.
		f, err := os.OpenFile(l.segPath(last), os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		if _, err := f.Seek(size, io.SeekStart); err != nil {
			return nil, errors.Join(fmt.Errorf("wal: reopen segment: %w", err), f.Close())
		}
		rc, err := f.SyscallConn()
		if err == nil && opts.Policy == FsyncRecord {
			// The collector acks retries of the records it replays with no
			// commit, so what a crash left in the page cache goes to disk.
			err = f.Sync()
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("wal: reopen segment: %w", err), f.Close())
		}
		l.f, l.rc, l.bw = f, rc, bufio.NewWriterSize(f, 64<<10)
		l.seq, l.off = last, size
	}
	return l, nil
}

// scanDir lists existing segment sequence numbers in order.
func (l *Log) scanDir() ([]uint64, error) {
	matches, err := filepath.Glob(filepath.Join(l.dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, m := range matches {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "wal-%d.log", &seq); err != nil {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%08d.log", seq))
}

// repairTail scans one segment, truncating a torn final record (incomplete
// bytes or a CRC failure that extends to end of file). It returns the size
// after repair and how many bytes were cut. Corruption that is not a tail —
// a bad record with intact framing after it cannot be distinguished once the
// stream desynchronizes, so any scan error here is treated as the tail; the
// mid-segment ErrCorrupt case applies to sealed segments, which are never
// repaired.
func repairTail(path string) (size, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	// The segment was opened read-write and may have been truncated: a
	// failed close can mean the repair never reached the disk.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			size, torn = 0, 0
			err = fmt.Errorf("wal: close repaired segment: %w", cerr)
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	total := fi.Size()
	if total < int64(len(segMagic)) {
		// Crash between create and header write: rewrite the header.
		if err := f.Truncate(0); err != nil {
			return 0, 0, err
		}
		if _, err := f.WriteAt(segMagic, 0); err != nil {
			return 0, 0, err
		}
		return int64(len(segMagic)), total, nil
	}
	good, err := scanSegment(f, total, nil)
	if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, 0, err
	}
	if good < total {
		// The zero padding after the records (and after a torn record) is
		// the end of the log, not part of the tear.
		torn, err := tornBytes(f, good, total)
		if err != nil {
			return 0, 0, err
		}
		if err := f.Truncate(good); err != nil {
			return 0, 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		return good, torn, nil
	}
	return total, 0, nil
}

// tornBytes returns how many bytes of f's range [from, to) precede its
// trailing run of zeros.
func tornBytes(f *os.File, from, to int64) (int64, error) {
	buf := make([]byte, 64<<10)
	var torn int64
	for off := from; off < to; {
		n, err := f.ReadAt(buf[:min(int64(len(buf)), to-off)], off)
		if k := len(bytes.TrimRight(buf[:n], "\x00")); k > 0 {
			torn = off + int64(k) - from
		}
		if err != nil {
			return 0, fmt.Errorf("wal: read torn tail: %w", err)
		}
		off += int64(n)
	}
	return torn, nil
}

// scanSegment reads the segment's first size bytes, calling fn (when
// non-nil) for each intact record with its starting offset. It returns the
// offset of the first byte past the last intact record; err reports why the
// scan stopped early (io.EOF for a clean end is mapped to nil).
func scanSegment(f *os.File, size int64, fn func(off int64, typ byte, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, fmt.Errorf("wal: segment header: %w", err)
	}
	if string(hdr) != string(segMagic) {
		return 0, fmt.Errorf("wal: bad segment magic %q", hdr)
	}
	off := int64(len(segMagic))
	var buf []byte
	for {
		typ, payload, used, err := readRecord(br, &buf)
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		if fn != nil {
			if err := fn(off, typ, payload); err != nil {
				return off, err
			}
		}
		off += used
	}
}

// readRecord reads one framed record. io.EOF means a clean record boundary;
// io.ErrUnexpectedEOF means the record is incomplete (torn); ErrCorrupt
// means the CRC failed or the frame is malformed.
func readRecord(br *bufio.Reader, buf *[]byte) (typ byte, payload []byte, used int64, err error) {
	tb, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, err
	}
	size, sn, err := readUvarint(br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, 0, io.ErrUnexpectedEOF
		}
		return 0, nil, 0, err
	}
	if size > MaxRecordSize {
		return 0, nil, 0, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, size)
	}
	need := int(size) + 4
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	if _, err := io.ReadFull(br, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, 0, io.ErrUnexpectedEOF
		}
		return 0, nil, 0, err
	}
	payload = b[:size]
	sum := crc32.Update(0, crcTable, []byte{tb})
	sum = crc32.Update(sum, crcTable, payload)
	if binary.BigEndian.Uint32(b[size:]) != sum {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return tb, payload, 1 + int64(sn) + int64(need), nil
}

// readUvarint reads a varint as binary.ReadUvarint does, overflow check
// included, and also returns the count of bytes consumed. It accepts only the
// minimal encoding binary.AppendUvarint writes: a zero final byte after the
// first is ErrCorrupt, where binary.ReadUvarint would accept it, so a record
// it reads always re-frames to the bytes it used.
func readUvarint(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, i, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, i + 1, fmt.Errorf("%w: varint overflow", ErrCorrupt)
		}
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, i + 1, fmt.Errorf("%w: non-minimal varint", ErrCorrupt)
			}
			return v | uint64(b)<<s, i + 1, nil
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
}

// openSegmentLocked creates and switches to segment seq. Callers hold l.mu
// (or own the log exclusively, as Open does).
func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.Create(l.segPath(seq))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return errors.Join(fmt.Errorf("wal: create segment: %w", err), f.Close())
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	if _, err := bw.Write(segMagic); err != nil {
		f.Close() //smuvet:allow closeerr -- write error is primary; the segment is abandoned
		return err
	}
	l.f, l.rc, l.bw = f, rc, bw
	l.seq, l.off = seq, int64(len(segMagic))
	l.padEnd = 0
	return nil
}

// trimPadLocked truncates the active segment's padding, so the file is
// exactly its records, and reports whether there was any to cut. Callers
// hold l.mu and have flushed the buffered writer.
func (l *Log) trimPadLocked() (bool, error) {
	if l.padEnd <= l.off {
		return false, nil
	}
	if err := l.f.Truncate(l.off); err != nil {
		return false, fmt.Errorf("wal: trim padding: %w", err)
	}
	l.padEnd = 0
	return true, nil
}

// Append writes one record and flushes it to the OS; per policy it also
// fsyncs. It returns the record's LSN. Rotation to a new segment happens
// before the write when the current segment is over budget, so one record
// never spans segments.
func (l *Log) Append(typ byte, payload []byte) (LSN, error) {
	lsn, seq, err := l.AppendAsync(typ, payload)
	if err != nil {
		return lsn, err
	}
	if l.opts.Policy == FsyncRecord {
		if err := l.Commit(seq); err != nil {
			return LSN{}, err
		}
	}
	return lsn, nil
}

// AppendAsync is Append minus the FsyncRecord durability wait: the record is
// flushed to the OS (it survives process death) and the returned commit token
// must be passed to Commit before the record may be acknowledged as durable.
// Splitting the two lets a caller that serializes appends under its own lock
// (the collector) release that lock before waiting on the fsync, so commits
// from concurrent connections actually coalesce into shared group-commit
// rounds instead of serializing one fsync each.
func (l *Log) AppendAsync(typ byte, payload []byte) (LSN, int64, error) {
	if len(payload) > MaxRecordSize {
		return LSN{}, 0, fmt.Errorf("wal: record payload %d exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return LSN{}, 0, err
	}
	if l.off >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return LSN{}, 0, err
		}
	}

	// The frame is built in the writer's own free buffer, which every
	// append leaves flushed, so a frame that fits allocates nothing and
	// the Write below copies it onto itself.
	frame := append(l.bw.AvailableBuffer(), typ)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	sum := crc32.Update(0, crcTable, frame[:1])
	sum = crc32.Update(sum, crcTable, payload)
	frame = binary.BigEndian.AppendUint32(frame, sum)

	if h := l.opts.Hook; h != nil {
		if err := h("wal-append"); err != nil {
			if errors.Is(err, ErrCrashTorn) {
				// Simulate dying mid-append: a strict prefix of the frame
				// reaches the OS, producing the torn tail Open must repair.
				l.bw.Write(frame[:len(frame)/2])
				l.bw.Flush()
			}
			return LSN{}, 0, err
		}
	}

	lsn := LSN{Seg: l.seq, Off: l.off}
	if _, err := l.bw.Write(frame); err != nil {
		return LSN{}, 0, fmt.Errorf("wal: append: %w", err)
	}
	if err := l.bw.Flush(); err != nil {
		return LSN{}, 0, fmt.Errorf("wal: flush: %w", err)
	}
	l.off += int64(len(frame))
	l.records++
	l.writeSeq++
	seq := l.writeSeq
	l.m.appends.Inc()
	l.m.bytes.Add(int64(len(frame)))

	if h := l.opts.Hook; h != nil {
		// The record is in the OS (survives process death) but not yet
		// synced (may not survive power loss).
		if err := h("pre-fsync"); err != nil {
			return LSN{}, 0, err
		}
	}
	return lsn, seq, nil
}

// Commit blocks until the append identified by a token from AppendAsync is
// covered by an fsync, joining (or leading) a group-commit round. Under
// FsyncOff it is a no-op: that policy leaves write-back to the OS, and
// Close syncs what is left. A zero token (no append happened) is a no-op.
// Once a round has failed, every Commit returns its error.
func (l *Log) Commit(seq int64) error {
	if seq <= 0 || l.opts.Policy != FsyncRecord {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	return l.commitLocked(seq)
}

// commitLocked blocks until a sync covers append number seq — the group
// commit. Called (and returning) with l.mu held. The first waiter whose
// record is not yet durable becomes the leader: it captures the current file
// and writeSeq, releases the lock, syncs, and re-acquires to publish the
// new durable horizon. Appends that land while the leader's sync is in
// flight keep writing into the buffer and queue behind the next leader, so a
// burst of N concurrent appends is committed by ~1 sync instead of N —
// without weakening the contract that Append(FsyncRecord) only returns once
// its own record is on stable storage.
//
// Every round syncs with fdatasync. A leader whose records have outgrown
// the padding first writes the next step after them, still under the lock;
// AppendAsync leaves the buffered writer flushed, so the segment's header
// and records are in the file before the padding lands behind them.
func (l *Log) commitLocked(seq int64) error {
	for l.durableSeq < seq {
		if err := l.usableLocked(); err != nil {
			return err
		}
		if l.syncing {
			// A leader's sync is in flight; it may have started before our
			// record was flushed, so wait for its verdict and re-check.
			l.syncedCond.Wait()
			continue
		}
		if l.off > l.padEnd {
			n, err := l.f.WriteAt(zeroPad[:], l.off)
			l.padEnd = l.off + int64(n)
			if err != nil {
				return fmt.Errorf("wal: pad segment: %w", err)
			}
		}
		l.syncing = true
		f, rc, target := l.f, l.rc, l.writeSeq
		l.mu.Unlock()
		var err error
		if h := l.opts.Hook; h != nil {
			err = h("group-fsync")
		}
		if err == nil {
			var t0 time.Time
			if l.m.timed {
				t0 = time.Now()
			}
			err = l.ds.sync(f, rc)
			if l.m.timed {
				l.m.syncSeconds.Observe(time.Since(t0).Seconds())
			}
		}
		l.mu.Lock()
		l.syncing = false
		if err == nil && target > l.durableSeq {
			l.durableSeq = target
			l.m.fsyncs.Inc()
		} else if err != nil && l.durableSeq < target {
			// A rotation can seal (flush + sync + close) the captured file
			// while the leader runs unlocked; the seal's own sync then
			// already covered the round and the stale-handle error is moot.
			// Reaching here means no sync covered its records: the log fails.
			l.failed = fmt.Errorf("wal: fsync: %w", err)
		}
		l.syncedCond.Broadcast()
	}
	return nil
}

// ErrCrashTorn asks Append's crash hook path to leave a torn half-record
// behind; faultnet returns it for the "wal-append" crash point.
var ErrCrashTorn = errors.New("wal: injected crash mid-append")

// usableLocked returns ErrClosed on a closed log, and on a failed one the
// failure: Linux may drop a failed fsync's dirty pages and report a retried
// sync of them as a success, so no write may follow a failed sync.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// Sync fsyncs the current segment file.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	return l.syncLocked(false)
}

// syncLocked fsyncs the active segment if an append is not yet durable, or
// if trimmed says its padding was just cut, so its new size is not yet
// durable either.
func (l *Log) syncLocked(trimmed bool) error {
	if l.durableSeq >= l.writeSeq && !trimmed {
		return nil
	}
	var t0 time.Time
	if l.m.timed {
		t0 = time.Now()
	}
	//smuvet:allow lockorder -- seal/Sync/Close path: callers asked for a synchronous barrier, so the lock stays held; the per-record path goes through commitLocked, which releases l.mu around the fsync
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	if l.m.timed {
		l.m.syncSeconds.Observe(time.Since(t0).Seconds())
	}
	l.durableSeq = l.writeSeq
	l.m.fsyncs.Inc()
	// Group-commit followers may be parked on the condvar; this sync (from
	// a seal, Sync or Close) covers their records too.
	l.syncedCond.Broadcast()
	return nil
}

// Rotate seals the current segment and opens the next one.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	l.m.rotations.Inc()
	return SyncDir(l.dir)
}

// sealLocked flushes, trims the padding off, syncs, and closes the current
// segment, recording it as sealed.
func (l *Log) sealLocked() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	trimmed, err := l.trimPadLocked()
	if err != nil {
		return err
	}
	if err := l.syncLocked(trimmed); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.sealedSt = append(l.sealedSt, sealed{seq: l.seq, bytes: l.off})
	return nil
}

// SyncDir fsyncs directory dir, so the files created in and removed from it
// survive power loss. Windows cannot sync a directory; there it does nothing.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Replay streams every record, sealed segments first then the active one, in
// append order. A CRC failure in a sealed segment (or anywhere that is not
// the repaired tail) surfaces as ErrCorrupt with the segment named. Replay
// flushes pending appends first, so it observes everything appended so far;
// it reads the active segment only up to its last record, not into the
// padding past it.
func (l *Log) Replay(fn func(lsn LSN, typ byte, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.bw.Flush(); err != nil {
		l.mu.Unlock()
		return err
	}
	segs := append(make([]sealed, 0, len(l.sealedSt)+1), l.sealedSt...)
	segs = append(segs, sealed{seq: l.seq, bytes: l.off})
	l.mu.Unlock()

	for _, s := range segs {
		f, err := os.Open(l.segPath(s.seq))
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		_, err = scanSegment(f, s.bytes, func(off int64, typ byte, payload []byte) error {
			return fn(LSN{Seg: s.seq, Off: off}, typ, payload)
		})
		f.Close()
		if err != nil {
			return fmt.Errorf("wal: replay segment %d: %w", s.seq, err)
		}
	}
	return nil
}

// TruncateBefore removes sealed segments that end before lsn's segment —
// i.e. whose every record precedes lsn. The segment containing lsn (and the
// active segment) are always retained. It returns how many segments were
// removed.
func (l *Log) TruncateBefore(lsn LSN) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	kept := l.sealedSt[:0]
	for _, s := range l.sealedSt {
		if s.seq < lsn.Seg {
			if err := os.Remove(l.segPath(s.seq)); err != nil {
				return removed, fmt.Errorf("wal: retention: %w", err)
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	l.sealedSt = kept
	if removed > 0 {
		return removed, SyncDir(l.dir)
	}
	return removed, nil
}

// Reset discards every record and restarts the log empty at segment 0 — the
// agent spool truncates this way once everything pending has been acked.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	for _, s := range l.sealedSt {
		if err := os.Remove(l.segPath(s.seq)); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	if err := os.Remove(l.segPath(l.seq)); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.sealedSt = nil
	l.records = 0
	l.durableSeq = l.writeSeq
	l.syncedCond.Broadcast()
	if err := l.openSegmentLocked(0); err != nil {
		return err
	}
	return SyncDir(l.dir)
}

// Close flushes, syncs, and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// A failed log syncs nothing more; its failure is the close's error.
	err := l.failed
	if err == nil {
		err = l.bw.Flush()
		trimmed, terr := l.trimPadLocked()
		if err == nil {
			err = terr
		}
		if serr := l.syncLocked(trimmed); err == nil {
			err = serr
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	// Wake group-commit followers so they observe closed instead of
	// parking forever (their records were covered by the sync above
	// anyway, unless it failed).
	l.syncedCond.Broadcast()
	l.mu.Unlock()
	return err
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealedSt) + 1
}

// Bytes returns the total size of all live segments' headers and records;
// the active segment's padding is not counted.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.off
	for _, s := range l.sealedSt {
		n += s.bytes
	}
	return n
}

// Records returns how many records have been appended since Open (replayed
// pre-existing records are not counted).
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Torn returns how many bytes of torn tail Open truncated away.
func (l *Log) Torn() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}
