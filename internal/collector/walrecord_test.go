package collector

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/config"
	"smartusage/internal/proto"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
	"smartusage/internal/wal/waltest"
)

// frameTap records, for each batch frame its agent writes, the WAL record
// the collector must log for it: the device as a uvarint, then the frame
// payload. An agent writes each frame with one Write.
type frameTap struct {
	net.Conn
	dev  trace.DeviceID
	recs *[][]byte
}

func (c *frameTap) Write(p []byte) (int, error) {
	ft, payload, err := proto.NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(p), io.Discard}).ReadFrame()
	if err == nil && ft == proto.FrameBatch {
		*c.recs = append(*c.recs, append(binary.AppendUvarint(nil, uint64(c.dev)), payload...))
	}
	return c.Conn.Write(p)
}

// TestBatchRecordsAreReceivedPayloads uploads a simulated campaign through
// one agent per device and checks that the collector's WAL holds, in order,
// one recBatch record per batch frame, each the device's uvarint followed by
// the frame payload byte for byte.
func TestBatchRecordsAreReceivedPayloads(t *testing.T) {
	cfg, err := config.ForYear(2015, 0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := waltest.Open(t)
	srv, err := New(Config{
		Addr: "127.0.0.1:0",
		Sink: func(*trace.Sample) error { return nil },
		WAL:  w,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// Every flush runs on this goroutine and waits for its ack, so the
	// taps see the frames in the order the collector logs them.
	var want [][]byte
	agents := map[trace.DeviceID]*agent.Agent{}
	var samples int
	err = sm.Run(func(s *trace.Sample) error {
		a := agents[s.Device]
		if a == nil {
			dev := s.Device
			if a, err = agent.New(agent.Config{
				Servers: []string{srv.Addr().String()}, Device: dev, OS: s.OS, BatchSize: 36,
				Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
					c, err := net.DialTimeout("tcp", addr, timeout)
					if err != nil {
						return nil, err
					}
					return &frameTap{Conn: c, dev: dev, recs: &want}, nil
				},
			}); err != nil {
				return err
			}
			agents[dev] = a
		}
		a.Record(s)
		samples++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var got [][]byte
	if err := w.Replay(func(_ wal.LSN, typ byte, payload []byte) error {
		if typ == recBatch {
			got = append(got, append([]byte(nil), payload...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("WAL holds %d batch records for %d batch frames", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch record %d differs from uvarint(device) || frame payload:\n got %x\nwant %x", i, got[i], want[i])
		}
	}
	if n := srv.Stats().Samples.Load(); n != int64(samples) {
		t.Fatalf("collector accepted %d of %d samples", n, samples)
	}
	t.Logf("%d batches of %d samples from %d devices", len(want), samples, len(agents))
}

// copyFlatDir copies the regular files of src into dst.
func copyFlatDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverParentWAL recovers the WAL and spool under
// testdata/parentwal/in, written by the collector as it was when it
// re-encoded every accepted batch into its WAL record: three devices, two
// checkpoints (the second cut while one device's batch sat at a partial-sink
// cursor), five batches past the last checkpoint (one a partial-sink failure
// and its resume), and a torn half-record at the tail. The spool segments
// under want/spool and the summary and per-device stats in
// want/recovery.json are what that collector's recovery made of them; this
// recovery must reproduce them exactly.
func TestRecoverParentWAL(t *testing.T) {
	const fixture = "testdata/parentwal"
	dir := t.TempDir()
	copyFlatDir(t, filepath.Join(fixture, "in", "wal"), filepath.Join(dir, "wal"))
	copyFlatDir(t, filepath.Join(fixture, "in", "spool"), filepath.Join(dir, "spool"))

	w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: 2048, Policy: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewRotatingSpool(filepath.Join(dir, "spool"), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Sink: sp.Sink(), WAL: w, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := srv.recoverWAL(sp.Restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(sp.Close(), w.Close()); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(fixture, "want", "recovery.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Recovery Recovery
		Devices  map[string]DeviceStats
		Order    []trace.DeviceID
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if *rec != want.Recovery {
		t.Errorf("recovery %s, want %s", rec, &want.Recovery)
	}
	if len(want.Order) != 3 || len(want.Devices) != 3 {
		t.Fatalf("fixture names %d devices with %d stats, want 3", len(want.Order), len(want.Devices))
	}
	for _, dev := range want.Order {
		got, ok := srv.Device(dev)
		if !ok || got != want.Devices[dev.String()] {
			t.Errorf("device %s: %+v (known %v), want %+v", dev, got, ok, want.Devices[dev.String()])
		}
	}

	wantSegs, err := os.ReadDir(filepath.Join(fixture, "want", "spool"))
	if err != nil {
		t.Fatal(err)
	}
	gotSegs, err := os.ReadDir(filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSegs) != len(wantSegs) {
		t.Fatalf("recovered spool has %d segments, want %d", len(gotSegs), len(wantSegs))
	}
	for i, e := range wantSegs {
		wantB, err := os.ReadFile(filepath.Join(fixture, "want", "spool", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := os.ReadFile(filepath.Join(dir, "spool", gotSegs[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if gotSegs[i].Name() != e.Name() || !bytes.Equal(gotB, wantB) {
			t.Errorf("recovered spool segment %s (%d bytes) differs from %s (%d bytes)", gotSegs[i].Name(), len(gotB), e.Name(), len(wantB))
		}
	}
}
