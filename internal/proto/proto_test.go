package proto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"smartusage/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	payload := []byte("hello world")
	if err := c.WriteFrame(FrameBatch, payload); err != nil {
		t.Fatal(err)
	}
	ft, got, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameBatch || !bytes.Equal(got, payload) {
		t.Fatalf("got %v %q", ft, got)
	}
}

// A frame on the wire is the type byte, the uvarint payload length, the
// payload, and the big-endian CRC-32C of the type byte and payload.
func TestFrameWireLayout(t *testing.T) {
	for _, size := range []int{0, 5, 127, 128, 70_000} {
		payload := bytes.Repeat([]byte{0xa5}, size)
		var buf bytes.Buffer
		if err := NewConn(&buf).WriteFrame(FrameBatchAck, payload); err != nil {
			t.Fatal(err)
		}
		want := binary.AppendUvarint([]byte{byte(FrameBatchAck)}, uint64(size))
		want = append(want, payload...)
		sum := crc32.Checksum(append([]byte{byte(FrameBatchAck)}, payload...), crc32.MakeTable(crc32.Castagnoli))
		want = binary.BigEndian.AppendUint32(want, sum)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d-byte payload: frame bytes differ from the reference layout", size)
		}
	}
}

func TestFrameEmpty(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteFrame(FrameBye, nil); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameBye || len(payload) != 0 {
		t.Fatalf("got %v %q", ft, payload)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteFrame(FrameBatch, make([]byte, MaxFrameSize+1)); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(byte(FrameBatch))
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // enormous uvarint
	c := NewConn(&buf)
	if _, _, err := c.ReadFrame(); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, Device: 0xdeadbeef, OS: trace.IOS, Token: "s3cret", Tier: 3, Replica: 2}
	buf := AppendHello(nil, &in)
	var out Hello
	if err := DecodeHello(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestHelloTrailingBytes(t *testing.T) {
	in := Hello{Version: 1}
	buf := append(AppendHello(nil, &in), 0x00)
	var out Hello
	if err := DecodeHello(buf, &out); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	in := HelloAck{SessionID: 42}
	var out HelloAck
	if err := DecodeHelloAck(AppendHelloAck(nil, &in), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v", out)
	}
}

func TestBatchAckRoundTrip(t *testing.T) {
	in := BatchAck{BatchID: 7, Accepted: 99}
	var out BatchAck
	if err := DecodeBatchAck(AppendBatchAck(nil, &in), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v", out)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	in := ErrorFrame{Message: "nope"}
	var out ErrorFrame
	if err := DecodeErrorFrame(AppendErrorFrame(nil, &in), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v", out)
	}
}

func randomBatch(rng *rand.Rand) Batch {
	b := Batch{BatchID: rng.Uint64()}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		s := trace.Sample{
			Device:  trace.DeviceID(rng.Uint64()),
			OS:      trace.OS(rng.Intn(2)),
			Time:    rng.Int63n(1 << 40),
			CellRX:  uint64(rng.Int63n(1 << 30)),
			WiFiRX:  uint64(rng.Int63n(1 << 30)),
			Battery: uint8(rng.Intn(101)),
		}
		if rng.Intn(2) == 0 {
			s.APs = append(s.APs, trace.APObs{
				BSSID: trace.BSSID(rng.Uint64() & 0xffffffffffff),
				ESSID: "0000docomo",
				RSSI:  -60,
			})
		}
		b.Samples = append(b.Samples, s)
	}
	return b
}

// Property: batch encode/decode is the identity.
func TestBatchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomBatch(rng)
		var out Batch
		if err := DecodeBatchAlias(AppendBatch(nil, &in), &out); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if in.BatchID != out.BatchID || len(in.Samples) != len(out.Samples) {
			return false
		}
		for i := range in.Samples {
			a, b := in.Samples[i], out.Samples[i]
			if len(a.APs) == 0 {
				a.APs = nil
			}
			if len(b.APs) == 0 {
				b.APs = nil
			}
			if len(a.Apps) == 0 {
				a.Apps = nil
			}
			if len(b.Apps) == 0 {
				b.Apps = nil
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The collector WAL-appends a batch payload as it arrived, so its bytes are
// a storage format: the batch ID, the sample count, then each sample's
// trace.AppendSample encoding behind its uvarint length. The samples' length
// prefixes take 1, 2 and 3 bytes, and the batch is appended after bytes
// already in dst, which must stay as they were.
func TestAppendBatchWireBytes(t *testing.T) {
	sample := func(aps int) trace.Sample {
		s := trace.Sample{Device: 42, OS: trace.Android, Time: 1_400_000_000, Battery: 80}
		for i := 0; i < aps; i++ {
			s.APs = append(s.APs, trace.APObs{
				BSSID: trace.BSSID(0x10000 + i), ESSID: "FON_FREE_INTERNET_0000", RSSI: -60, Channel: 6, Band: trace.Band24,
			})
		}
		return s
	}
	b := Batch{BatchID: 300, Samples: []trace.Sample{sample(0), sample(10), sample(600)}}
	head := []byte("already here")
	want := append([]byte(nil), head...)
	want = binary.AppendUvarint(want, b.BatchID)
	want = binary.AppendUvarint(want, uint64(len(b.Samples)))
	for i, wantPrefix := range []int{1, 2, 3} {
		enc := trace.AppendSample(nil, &b.Samples[i])
		if n := len(binary.AppendUvarint(nil, uint64(len(enc)))); n != wantPrefix {
			t.Fatalf("sample %d encodes to %d bytes: a %d-byte length prefix, want %d", i, len(enc), n, wantPrefix)
		}
		want = binary.AppendUvarint(want, uint64(len(enc)))
		want = append(want, enc...)
	}
	dst := append(make([]byte, 0, 8), head...)
	if got := AppendBatch(dst, &b); !bytes.Equal(got, want) {
		t.Fatalf("AppendBatch wrote %d bytes that differ from the %d-byte reference layout", len(got), len(want))
	}
}

func TestDecodeBatchCorruptNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomBatch(rng)
	buf := AppendBatch(nil, &in)
	for i := range buf {
		mutated := append([]byte(nil), buf...)
		mutated[i] ^= 0xff
		var out Batch
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at byte %d: %v", i, r)
				}
			}()
			DecodeBatchAlias(mutated, &out)
		}()
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	for i := 0; i < 10; i++ {
		if err := c.WriteFrame(FrameBatch, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		ft, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if ft != FrameBatch || len(payload) != 1 || payload[0] != byte(i) {
			t.Fatalf("frame %d: %v %v", i, ft, payload)
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameHello.String() != "hello" || FrameBatchAck.String() != "batch-ack" {
		t.Fatal("frame names wrong")
	}
}

// Random byte streams must never panic the frame reader and must terminate
// with either a frame or an error.
func TestReadFrameRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		c := NewConn(bytes.NewBuffer(junk))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on junk input: %v", r)
				}
			}()
			for {
				if _, _, err := c.ReadFrame(); err != nil {
					return
				}
			}
		}()
	}
}

// Payload decoders must reject truncations of valid payloads.
func TestDecodersRejectTruncation(t *testing.T) {
	hello := AppendHello(nil, &Hello{Version: 1, Device: 123, OS: trace.Android, Token: "tok"})
	for cut := 0; cut < len(hello); cut++ {
		var h Hello
		if err := DecodeHello(hello[:cut], &h); err == nil {
			t.Fatalf("truncated hello (%d bytes) accepted", cut)
		}
	}
	ack := AppendBatchAck(nil, &BatchAck{BatchID: 9, Accepted: 2})
	for cut := 0; cut < len(ack); cut++ {
		var a BatchAck
		if err := DecodeBatchAck(ack[:cut], &a); err == nil {
			t.Fatalf("truncated ack (%d bytes) accepted", cut)
		}
	}
}
