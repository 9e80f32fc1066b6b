package agent

// Disk-spool tests: a killed agent process must restart with the same
// pending samples and in-flight batch (no loss, no duplicates at the sink),
// a wiped spool must not silently collide batch IDs with the server's dedup
// state, and Close must say exactly how many samples it abandoned.

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// TestAgentRestartMidCampaign kills an agent (drops the object without
// Close) while it holds a frozen in-flight batch and queued samples, then
// rebuilds it from the spool directory: the collector must end up with every
// recorded sample exactly once, in order.
func TestAgentRestartMidCampaign(t *testing.T) {
	addr, times, stop := timedCollector(t)
	defer stop()
	spool := t.TempDir()

	online := false
	cfg := Config{
		Servers: []string{addr}, Device: 11, OS: trace.Android,
		BatchSize: 4, MaxAttempts: 1,
		Dial: func(address string, timeout time.Duration) (net.Conn, error) {
			if !online {
				return nil, fmt.Errorf("offline")
			}
			return net.DialTimeout("tcp", address, timeout)
		},
		Sleep:    func(time.Duration) {},
		SpoolDir: spool,
	}
	a1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Offline: the first auto-flush freezes samples 0-3 as in-flight batch
	// 1; the rest queue behind it.
	for i := 0; i < 10; i++ {
		s := trace.Sample{Device: 11, Time: int64(i)}
		a1.Record(&s)
	}
	if a1.Pending() != 10 {
		t.Fatalf("pending %d before the kill, want 10", a1.Pending())
	}
	// Kill: a1 is abandoned mid-campaign, its journal never closed.

	online = true
	a2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := a2.Stats(); st.Resumed != 10 {
		t.Fatalf("resumed %d samples from the spool, want 10", st.Resumed)
	}
	for i := 10; i < 12; i++ {
		s := trace.Sample{Device: 11, Time: int64(i)}
		a2.Record(&s)
	}
	if err := a2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	got := times()
	if len(got) != 12 {
		t.Fatalf("sink holds %d samples, want 12 (loss or duplicate across restart)", len(got))
	}
	for i, ts := range got {
		if ts != int64(i) {
			t.Fatalf("sink position %d holds time %d, want %d", i, ts, i)
		}
	}
	if st := a2.Stats(); st.SpoolErrs != 0 {
		t.Fatalf("journal errors: %+v", st)
	}
}

// TestAgentSpoolWipeRenumbering loses the spool entirely (factory reset)
// while the server still remembers the device: the next batch would reuse an
// already-acked ID and be swallowed by dedup, so the agent must renumber
// past the HelloAck high-water mark.
func TestAgentSpoolWipeRenumbering(t *testing.T) {
	addr, times, stop := timedCollector(t)
	defer stop()

	cfg := Config{
		Servers: []string{addr}, Device: 12, OS: trace.Android,
		BatchSize: 3, SpoolDir: t.TempDir(),
	}
	a1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // batches 1 and 2
		s := trace.Sample{Device: 12, Time: int64(i)}
		a1.Record(&s)
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.SpoolDir = t.TempDir() // the old spool (and batch sequence) is gone
	a2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		s := trace.Sample{Device: 12, Time: int64(i)}
		a2.Record(&s)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := a2.Stats(); st.Uploaded != 3 {
		t.Fatalf("second incarnation uploaded %d, want 3: %+v", st.Uploaded, st)
	}
	got := times()
	if len(got) != 9 {
		t.Fatalf("sink holds %d samples, want 9 (batch-ID collision swallowed a batch)", len(got))
	}
	for i, ts := range got {
		if ts != int64(i) {
			t.Fatalf("sink position %d holds time %d, want %d", i, ts, i)
		}
	}
}

// Close with an undrainable queue must say how many samples it abandoned and
// whether a spool retains them.
func TestCloseAbandonedError(t *testing.T) {
	offline := func(string, time.Duration) (net.Conn, error) {
		return nil, fmt.Errorf("offline")
	}
	for _, spooled := range []bool{false, true} {
		cfg := Config{
			Servers: []string{"127.0.0.1:1"}, Device: 13, OS: trace.Android,
			BatchSize: 1 << 30, MaxAttempts: 1,
			Dial: offline, Sleep: func(time.Duration) {},
		}
		if spooled {
			cfg.SpoolDir = t.TempDir()
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s := trace.Sample{Device: 13, Time: int64(i)}
			a.Record(&s)
		}
		err = a.Close()
		var ae *AbandonedError
		if !errors.As(err, &ae) {
			t.Fatalf("spooled=%v: Close returned %v, want *AbandonedError", spooled, err)
		}
		if ae.Count != 3 || ae.Spooled != spooled {
			t.Fatalf("spooled=%v: %+v", spooled, ae)
		}
		if spooled {
			// The abandoned samples must actually be recoverable.
			a2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a2.Stats().Resumed != 3 {
				t.Fatalf("abandoned samples not resumable: resumed %d", a2.Stats().Resumed)
			}
			a2.resetConn()
			a2.spool.Close()
		}
	}
}

// A journal record whose uvarint overflows 64 bits is corrupt: New must
// refuse the spool rather than resume under a truncated batch ID.
func TestSpoolRejectsOverflowingVarint(t *testing.T) {
	for name, payload := range map[string][]byte{
		"eleven bytes":       {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"tenth byte above 1": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		dir := t.TempDir()
		log, err := wal.Open(dir, wal.Options{Policy: wal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(spoolSeq, payload); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		a, err := New(Config{Servers: []string{"127.0.0.1:1"}, Device: 14, OS: trace.Android, SpoolDir: dir})
		if err == nil {
			a.spool.Close()
			t.Errorf("%s: New accepted a spool whose seq record overflows (batch ID %d)", name, a.batchID)
		}
	}
}
