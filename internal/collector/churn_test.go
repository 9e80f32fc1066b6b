package collector

// Resource hygiene under sustained churn: repeated rounds of upload →
// spool rotation → checkpoint → full replica restart must not accumulate
// open file descriptors (a leaked segment handle per rotation or restart
// would exhaust the process in days) and must keep the WAL's live segment
// count bounded (checkpoint + TruncateBefore must actually reclaim, not
// just advance a pointer). Sample conservation across all the restarts is
// asserted too — hygiene must not come at the cost of data.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// countFDs returns the process's open descriptor count, or -1 where
// /proc is unavailable (non-Linux).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func TestChurnKeepsFDsAndWALSegmentsBounded(t *testing.T) {
	const (
		rounds    = 8
		batchSize = 4
		perRound  = 2 * batchSize
		dev       = trace.DeviceID(77)
	)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	spoolDir := filepath.Join(dir, "spool")

	var baselineFDs int
	for round := 0; round < rounds; round++ {
		rep, err := StartReplica(ReplicaConfig{
			Server: Config{
				Addr: "127.0.0.1:0", ReadTimeout: time.Second, WriteTimeout: time.Second,
				Logf: func(string, ...any) {},
			},
			SpoolDir: spoolDir, SpoolBytes: 1 << 10,
			WALDir: walDir, WAL: wal.Options{SegmentBytes: 1 << 10, Policy: wal.FsyncRecord},
		})
		if err != nil {
			t.Fatalf("round %d: start replica: %v", round, err)
		}

		a, err := agent.New(agent.Config{
			Servers: []string{rep.Server().Addr().String()}, Device: dev, OS: trace.Android,
			BatchSize: batchSize, MaxAttempts: 3,
			Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRound; i++ {
			s := trace.Sample{Device: dev, OS: trace.Android, Time: int64(round*perRound+i) * 600, Battery: 50}
			a.Record(&s)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}

		// The drain's final checkpoint lets the WAL reclaim everything the
		// spool now holds durably; the segment count must then stay flat
		// across rounds.
		if err := rep.Drain(context.Background()); err != nil {
			t.Fatalf("round %d: drain replica: %v", round, err)
		}
		if segs := rep.WAL().Segments(); segs > 3 {
			t.Fatalf("round %d: %d live WAL segments after checkpoint, want <= 3 (retention not reclaiming)", round, segs)
		}

		// Measure the descriptor baseline after the first full round so
		// lazy runtime initialization (netpoller, random source) does not
		// count as a leak.
		if round == 0 {
			baselineFDs = countFDs()
		}
	}

	if got := countFDs(); got >= 0 && baselineFDs >= 0 {
		if got > baselineFDs+4 {
			t.Errorf("open fds grew from %d to %d across %d churn rounds: descriptor leak", baselineFDs, got, rounds)
		}
	} else {
		t.Log("fd accounting skipped: /proc/self/fd unavailable")
	}

	// Conservation across all the churn: every sample exactly once, in order.
	segs, err := filepath.Glob(filepath.Join(spoolDir, "spool-*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var times []int64
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		err = trace.NewReader(f).ReadAll(func(s *trace.Sample) error {
			if s.Device != dev {
				return fmt.Errorf("alien device %s in spool", s.Device)
			}
			times = append(times, s.Time)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatalf("read %s: %v", seg, err)
		}
	}
	if len(times) != rounds*perRound {
		t.Fatalf("spool holds %d samples after churn, want %d", len(times), rounds*perRound)
	}
	for j, ts := range times {
		if ts != int64(j)*600 {
			t.Fatalf("spool position %d holds time %d, want %d (duplicate or reorder)", j, ts, int64(j)*600)
		}
	}
}
