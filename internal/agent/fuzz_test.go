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

// replayAll applies records, in order, to a fresh agent's queue, as New
// does with the journal it reads from its SpoolDir.
func replayAll(recs []journalRecord) (*Agent, error) {
	a := &Agent{}
	for i, r := range recs {
		if err := a.replayRecord(wal.LSN{Off: int64(i)}, r.typ, r.payload); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// maxJournalInput bounds a FuzzReplayJournal input: room for one record of
// the longest payload its length byte allows, and a few more records.
const maxJournalInput = 512

type journalRecord struct {
	typ     byte
	payload []byte
}

// FuzzReplayJournal replays arbitrary (type, payload) records into an
// agent's queue, record by record as New does from its spool journal, all
// in memory. Each record is a type byte, a length byte and up to that many
// payload bytes of the input. The replay must refuse a journal it cannot
// apply, never panic on one, and compact a journal it accepts into records
// that replay to the same queue. The journal's framing on disk is
// FuzzReadWALRecord's (internal/wal), and the spool tests drive New's
// replay and compaction through a SpoolDir.
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
		// A longer journal repeats record kinds a short one already
		// mixes, while Go's minimizer costs the square of an interesting
		// input's length in executions: a few long finds would stall the
		// search for seconds each.
		if len(data) > maxJournalInput {
			return
		}
		var recs []journalRecord
		for len(data) >= 2 {
			typ, n := data[0], min(int(data[1]), len(data)-2)
			recs = append(recs, journalRecord{typ, data[2 : 2+n]})
			data = data[2+n:]
		}
		a, err := replayAll(recs)
		if err != nil {
			return
		}
		var compacted []journalRecord
		if err := a.compacted(func(typ byte, payload []byte) error {
			compacted = append(compacted, journalRecord{typ, bytes.Clone(payload)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		b, err := replayAll(compacted)
		if err != nil {
			t.Fatalf("replay refused the journal its own compaction wrote: %v", err)
		}
		if got, want := queueState(b), queueState(a); got != want {
			t.Fatalf("queue changed across compaction:\n got %q\nwant %q", got, want)
		}
	})
}
