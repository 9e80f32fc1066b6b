package proto

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"smartusage/internal/trace"
)

// FuzzDecodeHello drives the hello decoder with arbitrary bytes: it must
// never panic, and any accepted payload must survive an encode/decode round
// trip as a fixed point with a stable canonical encoding.
func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, &Hello{Version: Version, Device: 1, OS: trace.Android, Token: "tok"}))
	f.Add(AppendHello(nil, &Hello{Version: Version, Device: 0xdeadbeef, OS: trace.IOS}))
	f.Add(AppendHello(nil, &Hello{}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Hello
		if err := DecodeHello(data, &h); err != nil {
			return
		}
		enc := AppendHello(nil, &h)
		var h2 Hello
		if err := DecodeHello(enc, &h2); err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("round trip changed hello: %+v vs %+v", h, h2)
		}
		if enc2 := AppendHello(nil, &h2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not stable")
		}
	})
}

// FuzzDecodeBatch drives the batch decoder, which nests the trace sample
// codec, with arbitrary bytes.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		b := randomBatch(rng)
		f.Add(AppendBatch(nil, &b))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Batch
		if err := DecodeBatchAlias(data, &b); err != nil {
			return
		}
		enc := AppendBatch(nil, &b)
		var b2 Batch
		if err := DecodeBatchAlias(enc, &b2); err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if enc2 := AppendBatch(nil, &b2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// readWriter pairs an arbitrary byte stream with a write sink so a Conn can
// be driven read-only.
type readWriter struct {
	io.Reader
	io.Writer
}

// FuzzReadFrame feeds an arbitrary byte stream to the frame reader: it must
// never panic, must terminate, and every frame it accepts (type, payload,
// CRC all consistent) must survive a write/read round trip.
func FuzzReadFrame(f *testing.F) {
	seed := func(frames ...func(c *Conn) error) []byte {
		var buf bytes.Buffer
		c := NewConn(&buf)
		for _, fr := range frames {
			if err := fr(c); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(seed(func(c *Conn) error {
		return c.WriteFrame(FrameHello, AppendHello(nil, &Hello{Version: Version, Device: 9, OS: trace.IOS, Token: "t"}))
	}))
	rng := rand.New(rand.NewSource(8))
	b := randomBatch(rng)
	f.Add(seed(
		func(c *Conn) error { return c.WriteFrame(FrameBatch, AppendBatch(nil, &b)) },
		func(c *Conn) error {
			return c.WriteFrame(FrameBatchAck, AppendBatchAck(nil, &BatchAck{BatchID: 1, Accepted: 2}))
		},
		func(c *Conn) error { return c.WriteFrame(FrameBye, nil) },
	))
	f.Add([]byte{})
	f.Add([]byte{byte(FrameBye), 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&readWriter{Reader: bytes.NewReader(data), Writer: io.Discard})
		c.SetReadLimit(1 << 16) // keep allocations bounded under fuzzing
		for i := 0; i < 64; i++ {
			ft, payload, err := c.ReadFrame()
			if err != nil {
				return
			}
			// An accepted frame round-trips through the writer.
			cp := append([]byte(nil), payload...)
			var buf bytes.Buffer
			rt := NewConn(&buf)
			if err := rt.WriteFrame(ft, cp); err != nil {
				t.Fatalf("re-write of accepted frame: %v", err)
			}
			ft2, payload2, err := rt.ReadFrame()
			if err != nil {
				t.Fatalf("re-read of accepted frame: %v", err)
			}
			if ft2 != ft || !bytes.Equal(payload2, cp) {
				t.Fatalf("frame changed in round trip: %v %q vs %v %q", ft, cp, ft2, payload2)
			}
		}
	})
}
