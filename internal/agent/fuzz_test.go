package agent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// queueState renders the upload queue a journal replay rebuilds; the
// in-flight batch ID means something only while a batch is in flight.
func queueState(a *Agent) string {
	b := fmt.Appendf(nil, "batch-ID mark %d, in flight:", a.batchID)
	if a.inflight != nil {
		b = fmt.Appendf(b, " batch %d of %d", a.inflightID, len(a.inflight))
	}
	for i := range a.inflight {
		b = trace.AppendSample(b, &a.inflight[i])
	}
	b = append(b, "| pending:"...)
	for i := range a.pending {
		b = trace.AppendSample(b, &a.pending[i])
	}
	return string(b)
}

// FuzzReplayJournal writes arbitrary (type, payload) records into a spool
// journal with wal.Append and starts an agent on it. Each record is a type
// byte, a length byte and up to that many payload bytes of the input. New
// must refuse a journal it cannot replay, never panic on one, and compact a
// journal it accepts into one that a second New replays to the same queue.
func FuzzReplayJournal(f *testing.F) {
	rec := func(typ byte, payload []byte) []byte {
		return append([]byte{typ, byte(len(payload))}, payload...)
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	sample := trace.AppendSample(nil, &trace.Sample{Device: 14, OS: trace.Android, Time: 600, Battery: 50})
	f.Add(bytes.Join([][]byte{
		rec(spoolSample, sample), rec(spoolSample, sample), rec(spoolSample, sample),
		rec(spoolFreeze, uv(3, 2)), rec(spoolDrop, uv(1)), rec(spoolSeq, uv(4)),
	}, nil))
	f.Add(bytes.Join([][]byte{rec(spoolSample, sample), rec(spoolFreeze, uv(1, 1)), rec(spoolAck, uv(1))}, nil))
	f.Add(bytes.Join([][]byte{rec(spoolSample, sample), rec(spoolFreeze, uv(1, 1)), rec(spoolFreeze, uv(2, 1))}, nil))
	f.Add(rec(spoolSeq, uv(1<<63)))
	f.Add(rec(9, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		log, err := wal.Open(dir, wal.Options{Policy: wal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 2 {
			typ, n := data[0], min(int(data[1]), len(data)-2)
			if _, err := log.Append(typ, data[2:2+n]); err != nil {
				t.Fatal(err)
			}
			data = data[2+n:]
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Servers: []string{"127.0.0.1:1"}, Device: 14, OS: trace.Android, SpoolDir: dir}
		a, err := New(cfg)
		if err != nil {
			return
		}
		want := queueState(a)
		if err := a.spool.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatalf("New refused the journal its own compaction wrote: %v", err)
		}
		defer b.spool.Close()
		if got := queueState(b); got != want {
			t.Fatalf("queue changed across compaction:\n got %q\nwant %q", got, want)
		}
	})
}
