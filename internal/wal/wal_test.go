package wal

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendN appends n records with recognizable payloads and returns their
// LSNs.
func appendN(t *testing.T, l *Log, start, n int) []LSN {
	t.Helper()
	var lsns []LSN
	for i := start; i < start+n; i++ {
		lsn, err := l.Append(byte(1+i%3), []byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

// replayAll collects every record.
func replayAll(t *testing.T, l *Log) (lsns []LSN, payloads []string) {
	t.Helper()
	err := l.Replay(func(lsn LSN, typ byte, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lsns, payloads
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncOff}) // tiny: forces rotation
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	want := appendN(t, l, 0, n)
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("got %d segments, want rotation to produce >= 3", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Torn() != 0 {
		t.Fatalf("clean close left a torn tail of %d bytes", l2.Torn())
	}
	lsns, payloads := replayAll(t, l2)
	if len(lsns) != n {
		t.Fatalf("replayed %d records, want %d", len(lsns), n)
	}
	for i := range lsns {
		if lsns[i] != want[i] {
			t.Fatalf("record %d replayed at %s, appended at %s", i, lsns[i], want[i])
		}
		if wantP := fmt.Sprintf("record-%04d", i); payloads[i] != wantP {
			t.Fatalf("record %d payload %q, want %q", i, payloads[i], wantP)
		}
		if i > 0 && !lsns[i-1].Before(lsns[i]) {
			t.Fatalf("LSN order violated: %s then %s", lsns[i-1], lsns[i])
		}
	}
	// The reopened log appends after the existing tail.
	more := appendN(t, l2, n, 1)
	if !want[n-1].Before(more[0]) {
		t.Fatalf("post-reopen append at %s not after %s", more[0], want[n-1])
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return matches[len(matches)-1]
}

// TestSegmentEdgeCases is the rotation/retention/corruption table test: each
// case mutilates an on-disk log a specific way and states exactly what Open
// and Replay must do about it.
func TestSegmentEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// build writes the log (and damage) into dir and returns the
		// number of records that must survive.
		build func(t *testing.T, dir string) int
		// wantOpenErr / wantReplayErr: the failure Open or Replay must
		// report (nil = must succeed).
		wantReplayErr error
		wantTorn      bool
	}{
		{
			name: "empty-log-dir",
			build: func(t *testing.T, dir string) int {
				return 0
			},
		},
		{
			name: "empty-active-segment",
			build: func(t *testing.T, dir string) int {
				// Rotation leaves a fresh header-only segment; a crash
				// right after must replay cleanly as zero extra records.
				l, err := Open(dir, Options{Policy: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, l, 0, 3)
				if err := l.Rotate(); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				return 3
			},
		},
		{
			name: "zero-byte-final-segment",
			build: func(t *testing.T, dir string) int {
				// Crash between segment create and header write.
				l, err := Open(dir, Options{Policy: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, l, 0, 2)
				l.Close()
				f, err := os.Create(filepath.Join(dir, "wal-00000001.log"))
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
				return 2
			},
			wantTorn: true, // the headerless bytes count as torn (0 of them, but repaired)
		},
		{
			name: "torn-final-record",
			build: func(t *testing.T, dir string) int {
				l, err := Open(dir, Options{Policy: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, l, 0, 5)
				l.Close()
				// Cut the last record short, as a crash mid-write would.
				path := lastSegment(t, dir)
				fi, _ := os.Stat(path)
				if err := os.Truncate(path, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
				return 4
			},
			wantTorn: true,
		},
		{
			name: "crc-corrupt-final-record",
			build: func(t *testing.T, dir string) int {
				// A bit flip in the final record of the final segment is
				// indistinguishable from a torn partial page write:
				// repaired by truncation, not an error.
				l, err := Open(dir, Options{Policy: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				lsns := appendN(t, l, 0, 5)
				l.Close()
				flipByte(t, lastSegment(t, dir), lsns[4].Off+2)
				return 4
			},
			wantTorn: true,
		},
		{
			name: "crc-corrupt-mid-sealed-segment",
			build: func(t *testing.T, dir string) int {
				// Corruption in a sealed segment is NOT a crash artifact:
				// replay must stop with a clear error, never silently
				// skip records.
				l, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncOff})
				if err != nil {
					t.Fatal(err)
				}
				lsns := appendN(t, l, 0, 12)
				if l.Segments() < 2 {
					t.Fatal("test needs at least one sealed segment")
				}
				l.Close()
				// Flip a payload byte of the first record of segment 0.
				flipByte(t, filepath.Join(dir, "wal-00000000.log"), lsns[0].Off+2)
				return 0
			},
			wantReplayErr: ErrCorrupt,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := tc.build(t, dir)
			l, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncOff})
			if err != nil {
				t.Fatalf("open after damage: %v", err)
			}
			defer l.Close()
			if tc.wantTorn && tc.name == "torn-final-record" && l.Torn() == 0 {
				t.Error("Open reported no torn bytes for a torn tail")
			}
			var got int
			err = l.Replay(func(lsn LSN, typ byte, payload []byte) error {
				got++
				return nil
			})
			if tc.wantReplayErr != nil {
				if !errors.Is(err, tc.wantReplayErr) {
					t.Fatalf("replay error = %v, want %v", err, tc.wantReplayErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got != want {
				t.Fatalf("replayed %d records, want %d", got, want)
			}
			// The repaired log must accept appends and replay them.
			if _, err := l.Append(9, []byte("post-repair")); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			got = 0
			if err := l.Replay(func(LSN, byte, []byte) error { got++; return nil }); err != nil {
				t.Fatalf("replay after append: %v", err)
			}
			if got != want+1 {
				t.Fatalf("replayed %d records after append, want %d", got, want+1)
			}
		})
	}
}

// TestReadUvarintMinimal pins record lengths to the minimal varints
// binary.AppendUvarint writes. A non-minimal length, or a 10th byte whose
// bits fall past bit 63, is ErrCorrupt: a record framed with one and a
// matching CRC would otherwise read back and re-frame to fewer bytes than it
// used.
func TestReadUvarintMinimal(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"\x00", 0, true},
		{"\x7f", 127, true},
		{"\x80\x01", 128, true},
		{strings.Repeat("\xff", 9) + "\x01", math.MaxUint64, true},
		{"\x80\x00", 0, false},                          // 0 in two bytes
		{"\xff\x80\x00", 0, false},                      // 127 in three bytes
		{strings.Repeat("\x80", 9) + "\x02", 0, false},  // 1<<64, read as 0
		{strings.Repeat("\xff", 10) + "\x01", 0, false}, // 11 bytes
	} {
		v, n, err := readUvarint(bufio.NewReader(strings.NewReader(tc.in)))
		switch {
		case tc.ok && (err != nil || v != tc.want || n != len(tc.in)):
			t.Errorf("%q: got %d in %d bytes, err %v; want %d in %d", tc.in, v, n, err, tc.want, len(tc.in))
		case !tc.ok && !errors.Is(err, ErrCorrupt):
			t.Errorf("%q: got %d, err %v; want ErrCorrupt", tc.in, v, err)
		}
	}
}

// flipByte XORs one byte in a file.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestRetention(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsns := appendN(t, l, 0, 20)
	segsBefore := l.Segments()
	if segsBefore < 3 {
		t.Fatalf("need >= 3 segments, got %d", segsBefore)
	}
	// Truncate before a record in the last segment: every sealed segment
	// preceding it goes away, the rest replays intact.
	cut := lsns[len(lsns)-1]
	removed, err := l.TruncateBefore(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed != segsBefore-1 {
		t.Fatalf("removed %d segments, want %d", removed, segsBefore-1)
	}
	var got []LSN
	if err := l.Replay(func(lsn LSN, typ byte, p []byte) error { got = append(got, lsn); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1] != cut {
		t.Fatalf("replay after retention lost the cut record: %v", got)
	}
	for _, lsn := range got {
		if lsn.Seg != cut.Seg {
			t.Fatalf("record from removed segment survived: %s", lsn)
		}
	}
	// TruncateBefore never touches the active segment even when the LSN
	// is far past everything.
	if _, err := l.TruncateBefore(LSN{Seg: cut.Seg + 100}); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("active segment count = %d, want 1", l.Segments())
	}
	if _, err := l.Append(1, []byte("still-writable")); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 10)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("segments after reset = %d, want 1", n)
	}
	var got int
	if err := l.Replay(func(LSN, byte, []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("replayed %d records after reset, want 0", got)
	}
	if _, err := l.Append(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestTornAppendHook(t *testing.T) {
	// The wal-append crash hook leaves a real torn half-record that the
	// next Open must cut away, record-count preserved minus the torn one.
	dir := t.TempDir()
	crash := false
	l, err := Open(dir, Options{Policy: FsyncOff, Hook: func(point string) error {
		if crash && point == "wal-append" {
			return fmt.Errorf("boom: %w", ErrCrashTorn)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	crash = true
	if _, err := l.Append(1, []byte("doomed-record")); err == nil {
		t.Fatal("append survived the crash hook")
	}
	// Abandon l (crash): no Close. Reopen must repair.
	l2, err := Open(dir, Options{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Torn() == 0 {
		t.Fatal("no torn bytes found after a torn append")
	}
	var got int
	if err := l2.Replay(func(LSN, byte, []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("replayed %d records, want 3 (torn record dropped)", got)
	}
}
