package tiermerge

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartusage/internal/trace"
)

// writeSpool writes one spool segment under dir containing samples, using
// the same naming the collector's RotatingSpool produces.
func writeSpool(t *testing.T, dir string, seq int, samples []trace.Sample) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spool-%06d.trace", seq)))
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := range samples {
		if err := w.Write(&samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func mkSample(dev trace.DeviceID, tm int64) trace.Sample {
	return trace.Sample{Device: dev, OS: trace.Android, Time: tm, Battery: 50, CellRX: uint64(dev)*1000 + uint64(tm)}
}

// collect runs MergeDirs and deep-copies the emitted stream.
func collect(t *testing.T, dirs []string) ([]trace.Sample, *Stats) {
	t.Helper()
	var out []trace.Sample
	st, err := MergeDirs(dirs, func(s *trace.Sample) error {
		out = append(out, *s.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func TestMergeAbsorbsFailoverDuplicates(t *testing.T) {
	base := t.TempDir()
	r0, r1 := filepath.Join(base, "r0"), filepath.Join(base, "r1")
	shared := mkSample(2, 600) // committed on r0, retried against r1 after failover
	writeSpool(t, r0, 0, []trace.Sample{mkSample(1, 0), shared, mkSample(1, 600)})
	writeSpool(t, r1, 0, []trace.Sample{shared, mkSample(3, 0)})

	out, st := collect(t, []string{r0, r1})
	want := []trace.Sample{mkSample(1, 0), mkSample(1, 600), mkSample(2, 600), mkSample(3, 0)}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("merged stream:\n got %+v\nwant %+v", out, want)
	}
	if st.Read != 5 || st.Unique != 4 || st.FailoverDups != 1 || st.Replicas != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// The satellite acceptance table: the merged stream and stats must be
// identical under every enumeration order of the replica directories.
func TestMergeDeterministicAcrossEnumerationOrder(t *testing.T) {
	base := t.TempDir()
	r0, r1, r2 := filepath.Join(base, "r0"), filepath.Join(base, "r1"), filepath.Join(base, "r2")
	dup := mkSample(5, 1200)
	writeSpool(t, r0, 0, []trace.Sample{mkSample(4, 0), dup})
	writeSpool(t, r0, 1, []trace.Sample{mkSample(4, 600)})
	writeSpool(t, r1, 0, []trace.Sample{dup, mkSample(5, 1800)})
	writeSpool(t, r2, 0, []trace.Sample{mkSample(6, 0), dup})

	refOut, refStats := collect(t, []string{r0, r1, r2})
	for _, tc := range []struct {
		name string
		dirs []string
	}{
		{"reversed", []string{r2, r1, r0}},
		{"rotated", []string{r1, r2, r0}},
		{"swapped tail", []string{r0, r2, r1}},
	} {
		out, st := collect(t, tc.dirs)
		if !reflect.DeepEqual(out, refOut) {
			t.Errorf("%s: merged stream differs from canonical order", tc.name)
		}
		if !reflect.DeepEqual(st, refStats) {
			t.Errorf("%s: stats %+v differ from canonical %+v", tc.name, st, refStats)
		}
	}
	if refStats.FailoverDups != 2 || refStats.Unique != 5 {
		t.Fatalf("canonical stats %+v", refStats)
	}
}

// A duplicate inside one replica's own spool is not failover fallout — it
// means that replica double-sinked, and the merge must refuse to hide it.
func TestMergeRejectsIntraReplicaDuplicate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r0")
	s := mkSample(7, 600)
	writeSpool(t, dir, 0, []trace.Sample{s, mkSample(7, 1200), s})
	_, err := MergeDirs([]string{dir}, func(*trace.Sample) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "double-sink") {
		t.Fatalf("intra-replica duplicate not rejected: %v", err)
	}
}

// Two replicas carrying different payloads for the same (device, time) means
// the tier diverged; picking either silently would corrupt the campaign.
func TestMergeRejectsConflictingPayloads(t *testing.T) {
	base := t.TempDir()
	r0, r1 := filepath.Join(base, "r0"), filepath.Join(base, "r1")
	a := mkSample(8, 600)
	b := a
	b.CellRX++ // same identity, different payload
	writeSpool(t, r0, 0, []trace.Sample{a})
	writeSpool(t, r1, 0, []trace.Sample{b})
	_, err := MergeDirs([]string{r0, r1}, func(*trace.Sample) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("conflicting payloads not rejected: %v", err)
	}
}

func TestMergeEmptyReplicaContributesNothing(t *testing.T) {
	base := t.TempDir()
	r0, idle := filepath.Join(base, "r0"), filepath.Join(base, "idle")
	if err := os.MkdirAll(idle, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSpool(t, r0, 0, []trace.Sample{mkSample(1, 0)})
	out, st := collect(t, []string{r0, idle})
	if len(out) != 1 || st.Unique != 1 || st.Replicas != 2 || st.Segments != 1 {
		t.Fatalf("got %d samples, stats %+v", len(out), st)
	}
}

// A merge's Source must be restartable: AnalyzeCampaign runs two passes
// over it. Close removes the scratch directory Open made.
func TestSourceIsRestartable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r0")
	writeSpool(t, dir, 0, []trace.Sample{mkSample(1, 0), mkSample(2, 0)})
	m, err := Open([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		n := 0
		if err := m.Source()(func(*trace.Sample) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("pass %d saw %d samples, want 2", pass, n)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(m.dir); !os.IsNotExist(err) {
		t.Fatalf("Close left the scratch directory behind: %v", err)
	}
}

// Replica 1 spools s twice around another sample, while replica 0 also holds
// s. The first copy on replica 1 is a legitimate failover duplicate of
// replica 0's; the second is replica 1 double-sinking, and must not be
// laundered by comparing it only with replica 0's copy.
func TestMergeRejectsDoubleSinkBehindFailoverCopy(t *testing.T) {
	base := t.TempDir()
	r0, r1 := filepath.Join(base, "r0"), filepath.Join(base, "r1")
	s := mkSample(9, 600)
	writeSpool(t, r0, 0, []trace.Sample{s})
	writeSpool(t, r1, 0, []trace.Sample{s, mkSample(9, 1200), s})
	_, err := MergeDirs([]string{r0, r1}, func(*trace.Sample) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "replica 1 ("+r1+") spooled device") ||
		!strings.Contains(err.Error(), "double-sink") {
		t.Fatalf("double-sink behind a failover copy not rejected: %v", err)
	}
}

// Open with a chunk of a few records and a fan-in of two spills many runs
// and merges them in several passes; stream, stats and every error must
// match a merge that fits in one chunk.
func TestMergeAcrossRunsAndPasses(t *testing.T) {
	base := t.TempDir()
	r0, r1, r2 := filepath.Join(base, "r0"), filepath.Join(base, "r1"), filepath.Join(base, "r2")
	var spools [3][]trace.Sample
	for dev := trace.DeviceID(1); dev <= 12; dev++ {
		for k := 0; k < 10; k++ {
			s, r := mkSample(dev, int64(k)*600), (int(dev)+k)%3
			spools[r] = append(spools[r], s)
			if k%3 == 0 { // a failover copy on the next replica
				spools[(r+1)%3] = append(spools[(r+1)%3], s)
			}
		}
	}
	a, b, c := spools[0], spools[1], spools[2]
	writeSpool(t, r0, 0, a)
	writeSpool(t, r1, 0, b[:len(b)/2])
	writeSpool(t, r1, 1, b[len(b)/2:])
	writeSpool(t, r2, 0, c)
	dirs := []string{r0, r1, r2}

	want, wantStats := collect(t, dirs)
	m, err := open(dirs, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var got []trace.Sample
	if err := m.Source()(func(s *trace.Sample) error {
		got = append(got, *s.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-run merge stream differs from the one-chunk merge")
	}
	if m.Stats.Runs < 3*2 {
		t.Fatalf("only %d runs: the chunk did not force a multi-pass merge", m.Stats.Runs)
	}
	if m.Stats.SpillBytes <= wantStats.SpillBytes {
		t.Fatalf("multi-pass merge spilled %d bytes, no more than the one-pass %d", m.Stats.SpillBytes, wantStats.SpillBytes)
	}
	st, ref := m.Stats, *wantStats
	st.Runs, st.SpillBytes, ref.Runs, ref.SpillBytes = 0, 0, 0, 0
	if st != ref || ref.FailoverDups == 0 {
		t.Fatalf("multi-run stats %+v, one-chunk stats %+v", m.Stats, *wantStats)
	}

	// A fault in a late run must surface through the passes too.
	writeSpool(t, r2, 1, []trace.Sample{mkSample(12, 8*600)}) // r2 already holds it
	if _, err := open(dirs, 200, 2); err == nil || !strings.Contains(err.Error(), "double-sink") {
		t.Fatalf("multi-pass merge missed a double-sink: %v", err)
	}
}

// heapWatch samples HeapAlloc until stopped and reports the peak.
func heapWatch() (stop func() uint64) {
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak.Load() {
			peak.Store(ms.HeapAlloc) // only the watcher goroutine and stop write
		}
	}
	sample()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		sample()
		return peak.Load()
	}
}

// writeFatSpool writes n samples of about 1 KiB each (32 AP observations
// drawn from a small ESSID set) as one spool segment under dir, one sample
// per device and time from device dev0 on, and returns the bytes written.
func writeFatSpool(t *testing.T, dir string, dev0, n int) int64 {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spool-000000.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	s := trace.Sample{OS: trace.Android, Battery: 50}
	for i := 0; i < 32; i++ {
		s.APs = append(s.APs, trace.APObs{BSSID: trace.BSSID(0x10000 + i), ESSID: fmt.Sprintf("essid-%014d", i), RSSI: -60, Channel: 6})
	}
	for i := 0; i < n; i++ {
		s.Device, s.Time = trace.DeviceID(dev0+i/16), int64(i%16)*600
		s.CellRX = uint64(i)
		if err := w.Write(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// mergeHeapSlack is how far the long merge's peak heap may sit above the
// short one's: GC pacing noise, far below what holding the extra records
// would cost.
const mergeHeapSlack = 4 << 20

// TestMergeBoundedMemory runs MergeDirs over two replica spools at two
// lengths, 8x apart, under a MemStats watchdog. The short input already
// fills a chunk, so the peak heap above the pre-merge baseline must not grow
// with the input: the long one is read through the same chunk and merged
// from runs on disk.
func TestMergeBoundedMemory(t *testing.T) {
	measure := func(n int) (spooled int64, runs int, growth uint64) {
		base := t.TempDir()
		dirs := []string{filepath.Join(base, "r0"), filepath.Join(base, "r1")}
		spooled = writeFatSpool(t, dirs[0], 0, n/2) + writeFatSpool(t, dirs[1], n, n-n/2)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		stop := heapWatch()
		st, err := MergeDirs(dirs, func(*trace.Sample) error { return nil })
		peak := stop()
		if err != nil {
			t.Fatal(err)
		}
		if st.Unique != n {
			t.Fatalf("merged %d of %d samples", st.Unique, n)
		}
		if peak > ms.HeapAlloc {
			growth = peak - ms.HeapAlloc
		}
		t.Logf("%d samples, %.1f MiB spooled, %d runs: heap +%.1f MiB",
			n, float64(spooled)/(1<<20), st.Runs, float64(growth)/(1<<20))
		return spooled, st.Runs, growth
	}

	const n = 8192 // about one chunk of records
	_, _, short := measure(n)
	spooled, runs, long := measure(8 * n)
	if long > short+mergeHeapSlack {
		t.Errorf("peak heap grew with the input: +%.1f MiB over %.1f MiB of spools vs +%.1f MiB over 1/8 of them",
			float64(long)/(1<<20), float64(spooled)/(1<<20), float64(short)/(1<<20))
	}
	if runs < 2 {
		t.Errorf("the long merge spilled %d runs; the chunk never filled", runs)
	}
	// The check must be able to fail: holding the long input would cost
	// more than the slack allows.
	if uint64(spooled) <= short+mergeHeapSlack {
		t.Fatalf("long input (%d bytes) too short to tell a bounded merge from an unbounded one", spooled)
	}
}
