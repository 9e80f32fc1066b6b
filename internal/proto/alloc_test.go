package proto

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"smartusage/internal/trace"
)

// TestBatchRoundTripSteadyStateAllocs pins the wire hot path's allocation
// contract: a warm encode+decode round trip of a reused Batch allocates
// nothing — the encode writes straight into the reused payload, and the
// decode target reuses its sample slab and per-sample slices while its
// ESSIDs alias the payload. This is the per-batch cost the agent and
// collector pay for every upload.
func TestBatchRoundTripSteadyStateAllocs(t *testing.T) {
	in := Batch{BatchID: 7}
	for i := 0; i < 64; i++ {
		s := trace.Sample{
			Device:    trace.DeviceID(100 + i%8),
			OS:        trace.Android,
			Time:      1_400_000_000 + int64(i)*600,
			WiFiState: trace.WiFiOn,
			CellRX:    uint64(1000 * i),
			Apps: []trace.AppTraffic{
				{Category: trace.CatVideo, Iface: trace.Cellular, RX: uint64(i)},
			},
			APs: []trace.APObs{
				{BSSID: trace.BSSID(0x1000 + i%4), ESSID: "0000docomo", RSSI: -60, Channel: 1, Band: trace.Band24},
				{BSSID: trace.BSSID(0x2000 + i%4), ESSID: "7SPOT", RSSI: -70, Channel: 6, Band: trace.Band24},
			},
			Battery: uint8(20 + i%80),
		}
		in.Samples = append(in.Samples, s)
	}
	var out Batch
	var payload []byte
	roundTrip := func() {
		payload = AppendBatch(payload[:0], &in)
		if err := DecodeBatchAlias(payload, &out); err != nil {
			panic(err)
		}
	}
	roundTrip() // warm: payload, decode slab
	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Fatalf("warm batch round trip allocates %.1f times per batch, want 0", allocs)
	}
	if len(out.Samples) != len(in.Samples) || out.Samples[63].APs[1].ESSID != "7SPOT" {
		t.Fatal("round trip mangled the batch")
	}
}

// TestDecodeBatchAliasZeroAlloc pins the collector's zero-copy frame decode:
// a warm DecodeBatchAlias into a reused Batch allocates nothing even when
// every ESSID in the frame is one it has never seen — there is no string
// copy on this path, samples alias the frame buffer.
func TestDecodeBatchAliasZeroAlloc(t *testing.T) {
	in := Batch{BatchID: 9}
	for i := 0; i < 64; i++ {
		in.Samples = append(in.Samples, trace.Sample{
			Device: trace.DeviceID(i),
			OS:     trace.Android,
			Time:   1_400_000_000 + int64(i),
			APs: []trace.APObs{
				{BSSID: trace.BSSID(i), ESSID: "mobilepoint", RSSI: -65, Channel: 11, Band: trace.Band24},
			},
		})
	}
	payload := AppendBatch(nil, &in)
	essid := bytes.Index(payload, []byte("mobilepoint"))
	if essid < 0 {
		t.Fatal("fixture ESSID not found in encoding")
	}
	var out Batch
	if err := DecodeBatchAlias(payload, &out); err != nil { // warm the slabs
		t.Fatalf("decode alias: %v", err)
	}
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		payload[essid] = byte('a' + round%26) // novel ESSID every run
		round++
		if err := DecodeBatchAlias(payload, &out); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm alias batch decode allocates %.1f times per batch, want 0", allocs)
	}
	if len(out.Samples) != 64 || out.Samples[1].APs[0].ESSID != "mobilepoint" {
		t.Fatalf("alias decode mangled the batch: %d samples", len(out.Samples))
	}
}

// TestFrameRoundTripZeroAlloc pins the framing layer under both: a warm
// WriteFrame+ReadFrame round trip allocates nothing. The frame header and
// checksum are written from the Conn's own scratch, and the type byte's
// share of the checksum comes from a table, so no small buffer escapes to
// the heap per frame.
func TestFrameRoundTripZeroAlloc(t *testing.T) {
	var wire bytes.Buffer
	c := NewConn(&wire)
	payload := bytes.Repeat([]byte("smartusage"), 300) // a 2-byte length prefix
	roundTrip := func() {
		if err := c.WriteFrame(FrameBatch, payload); err != nil {
			panic(err)
		}
		ft, got, err := c.ReadFrame()
		if err != nil {
			panic(err)
		}
		if ft != FrameBatch || !bytes.Equal(got, payload) {
			panic("frame round trip mangled the frame")
		}
	}
	roundTrip() // warm: read scratch, wire buffer
	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Fatalf("warm frame round trip allocates %.1f times per frame, want 0", allocs)
	}
}

// TestConnSetupBytes pins what a connection costs in memory: NewConn plus
// one 1 KiB frame each way allocates under 32 KiB. Every agent session and
// every collector connection pays it, so buffers sized for the largest frame
// (64 KiB per direction) would cost a 1,000-agent fleet about 250 MiB.
func TestConnSetupBytes(t *testing.T) {
	payload := bytes.Repeat([]byte("smartusage"), 103) // 1,030 bytes
	var wire bytes.Buffer
	if err := NewConn(&wire).WriteFrame(FrameBatch, payload); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()
	const conns = 64
	rd := bytes.NewReader(nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		rd.Reset(frame)
		c := NewConn(&readWriter{Reader: rd, Writer: io.Discard})
		if err := c.WriteFrame(FrameBatch, payload); err != nil {
			t.Fatal(err)
		}
		if ft, got, err := c.ReadFrame(); err != nil || ft != FrameBatch || !bytes.Equal(got, payload) {
			t.Fatalf("frame read back as %s, %d bytes, %v", ft, len(got), err)
		}
	}
	runtime.ReadMemStats(&after)
	if perConn := (after.TotalAlloc - before.TotalAlloc) / conns; perConn >= 32<<10 {
		t.Fatalf("NewConn plus one 1 KiB frame each way allocates %d bytes, want < 32 KiB", perConn)
	} else {
		t.Logf("%d bytes per connection", perConn)
	}
}
