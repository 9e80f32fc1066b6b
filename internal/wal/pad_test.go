package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"testing"
	"time"

	"smartusage/internal/obs"
)

// frameLen is the on-disk size of a record with an n-byte payload.
func frameLen(n int) int64 {
	return int64(1 + len(binary.AppendUvarint(nil, uint64(n))) + n + 4)
}

// fileSize stats one segment file.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestPaddedLogReopensAfterKill: an FsyncRecord log abandoned without Close,
// as collector.Replica.Kill leaves it, still carries its zero padding. Open
// must read that padding as the end of the log, not as a torn record, and a
// torn half-record in front of the padding counts only its own bytes.
func TestPaddedLogReopensAfterKill(t *testing.T) {
	dir := t.TempDir()
	torn := false
	hook := func(point string) error {
		if torn && point == "wal-append" {
			return fmt.Errorf("killed: %w", ErrCrashTorn)
		}
		return nil
	}
	l, err := Open(dir, Options{Policy: FsyncRecord})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if size, records := fileSize(t, lastSegment(t, dir)), l.Bytes(); size <= records {
		t.Fatalf("segment is %d bytes for %d bytes of records: no padding to reopen over", size, records)
	}
	// l is abandoned here: no Close, as after a kill.

	l2, err := Open(dir, Options{Policy: FsyncRecord, Hook: hook})
	if err != nil {
		t.Fatalf("reopen a killed log: %v", err)
	}
	if n := l2.Torn(); n != 0 {
		t.Fatalf("Torn() = %d after a kill between appends, want 0: padding counted as a tear", n)
	}
	if _, payloads := replayAll(t, l2); len(payloads) != 20 {
		t.Fatalf("replayed %d records, want every acked one of 20", len(payloads))
	}
	appendN(t, l2, 20, 5)
	torn = true
	const doomed = "doomed-record"
	if _, err := l2.Append(1, []byte(doomed)); !errors.Is(err, ErrCrashTorn) {
		t.Fatalf("torn append: err = %v, want ErrCrashTorn", err)
	}
	// l2 is abandoned with half a frame in front of its padding.

	reg := obs.NewRegistry()
	l3, err := Open(dir, Options{Policy: FsyncRecord, Metrics: reg})
	if err != nil {
		t.Fatalf("reopen after a torn append: %v", err)
	}
	defer l3.Close()
	half := frameLen(len(doomed)) / 2
	if n := l3.Torn(); n != half {
		t.Fatalf("Torn() = %d, want the %d bytes of the half-record only", n, half)
	}
	if n := reg.Counter("wal_torn_bytes_total", obs.L("wal", "wal")).Value(); n != half {
		t.Fatalf("wal_torn_bytes_total = %d, want %d", n, half)
	}
	if _, payloads := replayAll(t, l3); len(payloads) != 25 {
		t.Fatalf("replayed %d records, want 25 (the torn one dropped)", len(payloads))
	}
}

// TestReplayStopsBeforePadding: Replay on an open FsyncRecord log reads the
// active segment up to its last record. Read on into the padding, the zeros
// frame as a record with a bad checksum.
func TestReplayStopsBeforePadding(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: FsyncRecord})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := appendN(t, l, 0, 10)
	lsns, _ := replayAll(t, l) // fails the test on ErrCorrupt
	if len(lsns) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(lsns), len(want))
	}
}

// TestSegmentFilesHoldOnlyRecords: padding lives only in the active
// segment. After a rotation the sealed segment, and after Close every
// segment, is exactly its header and records on disk, including a segment
// sealed while a group-commit leader that padded it was still syncing.
func TestSegmentFilesHoldOnlyRecords(t *testing.T) {
	dir := t.TempDir()
	parked := make(chan struct{})
	release := make(chan struct{})
	park := false
	hook := func(point string) error {
		if point == "group-fsync" && park {
			park = false
			close(parked)
			<-release
		}
		return nil
	}
	l, err := Open(dir, Options{Policy: FsyncRecord, Hook: hook, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int64{} // segment -> header plus record bytes
	add := func(lsn LSN, n int) {
		if want[lsn.Seg] == 0 {
			want[lsn.Seg] = int64(len(segMagic))
		}
		want[lsn.Seg] += frameLen(n)
	}
	payload := make([]byte, 300)
	for i := 0; i < 40; i++ { // rotates every 14 records
		lsn, err := l.Append(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		add(lsn, len(payload))
	}
	check := func(stage string, segs map[uint64]bool) {
		t.Helper()
		for seq := range segs {
			if got := fileSize(t, l.segPath(seq)); got != want[seq] {
				t.Errorf("%s: segment %d is %d bytes on disk, its records %d", stage, seq, got, want[seq])
			}
		}
	}
	l.mu.Lock()
	active := l.seq
	l.mu.Unlock()
	sealedSegs := map[uint64]bool{}
	for seq := range want {
		if seq != active {
			sealedSegs[seq] = true
		}
	}
	if len(sealedSegs) < 2 {
		t.Fatalf("%d sealed segments, want rotation to seal at least 2", len(sealedSegs))
	}
	check("after rotation", sealedSegs)

	// A fresh segment's first round lays padding; seal the segment while
	// that round's leader is parked before its sync.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	park = true
	done := make(chan error, 1)
	go func() {
		lsn, err := l.Append(1, payload)
		if err == nil {
			add(lsn, len(payload))
		}
		done <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached group-fsync")
	}
	l.mu.Lock()
	padded, seq := l.padEnd > l.off, l.seq
	l.mu.Unlock()
	if !padded {
		t.Fatal("the parked leader laid no padding")
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("append overlapped by a seal: %v", err)
	}
	check("after a seal under a padding leader", map[uint64]bool{seq: true})

	// Close trims the padding the active segment's first round laid.
	lsn, err := l.Append(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	add(lsn, len(payload))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	all := map[uint64]bool{}
	for seq := range want {
		all[seq] = true
	}
	check("after Close", all)
}

// TestSegmentCreatedWithoutRecordsReopens: a crash between creating a
// segment and writing its first record must leave a segment Open accepts,
// so no padding may reach a segment's file ahead of its header.
func TestSegmentCreatedWithoutRecordsReopens(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: FsyncRecord})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	// l is abandoned here, its new segment holding no record.

	l2, err := Open(dir, Options{Policy: FsyncRecord})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if n := l2.Torn(); n != 0 {
		t.Fatalf("Torn() = %d, want 0", n)
	}
	if _, payloads := replayAll(t, l2); len(payloads) != 3 {
		t.Fatalf("replayed %d records, want 3", len(payloads))
	}
	if _, err := l2.Append(1, []byte("after-reopen")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestRoundsEndInsidePadding appends records of random sizes up to 64 KiB
// across several padding steps, then fails one sync round at its end.
// Checked from the group-fsync hook, every round's records end inside
// padding its leader has written, and the padding reaches at most one step
// past them. A failed round must not grow the segment either: the log
// refuses every retried commit, so no retry runs a round or lays a step.
func TestRoundsEndInsidePadding(t *testing.T) {
	boom := errors.New("injected sync failure")
	var (
		l                     *Log
		rounds, failed, steps int
		lastPad               int64
		failAll               bool
	)
	hook := func(point string) error {
		if point != "group-fsync" {
			return nil
		}
		l.mu.Lock()
		off, padEnd, path := l.off, l.padEnd, l.segPath(l.seq)
		l.mu.Unlock()
		rounds++
		if off > padEnd {
			t.Errorf("round %d syncs records ending at %d, past the padding at %d", rounds, off, padEnd)
		}
		if size := fileSize(t, path); size != padEnd || padEnd > off+padStep {
			t.Errorf("round %d: segment is %d bytes and its padding ends at %d, records at %d: want the file to end where the padding does, at most %d bytes past the records",
				rounds, size, padEnd, off, padStep)
		}
		if padEnd != lastPad {
			steps, lastPad = steps+1, padEnd
		}
		if failAll {
			failed++
			return boom
		}
		return nil
	}
	l, err := Open(t.TempDir(), Options{Policy: FsyncRecord, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 64<<10)
	for i := 0; i < 300; i++ {
		if _, err := l.Append(1, buf[:1+rng.IntN(len(buf))]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if steps < 6 {
		t.Fatalf("%d rounds laid %d padding steps: too few to test", rounds, steps)
	}

	failAll = true
	_, seq, err := l.AppendAsync(1, buf[:100])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); !errors.Is(err, boom) {
		t.Fatalf("append on a failing disk: err = %v, want the injected failure", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Commit(seq); !errors.Is(err, boom) {
			t.Fatalf("retry %d on a failing disk: err = %v, want the injected failure", i, err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d rounds failed, want 1: a retried commit on a failed log ran a round", failed)
	}
	l.mu.Lock()
	off, path := l.off, l.segPath(l.seq)
	l.mu.Unlock()
	if size := fileSize(t, path); size > off+padStep {
		t.Fatalf("after a failed round and 5 retries the segment is %d bytes for %d bytes of records: padding grew past one step", size, off)
	}
	t.Logf("%d rounds (%d failed) laid %d padding steps", rounds, failed, steps)
}
