// Package proto defines the wire protocol between the on-device measurement
// agent and the collection server (§2 of the paper: "The software collects
// statistics every 10 minutes and uploads this data to a central server. If
// the upload fails the software caches the data and sends it later.").
//
// The protocol is a simple framed binary exchange over one TCP connection:
//
//	client → server  Hello   {deviceID, os, version, token}
//	server → client  HelloAck{sessionID}
//	client → server  Batch   {batchID, samples...}     (repeated)
//	server → client  BatchAck{batchID, accepted}       (one per batch)
//	client → server  Bye                                (optional, clean close)
//
// Every frame is a one-byte type, a uvarint payload length, the payload,
// and a big-endian CRC-32C of the type byte and payload. The checksum makes
// in-flight corruption (which TCP's 16-bit checksum misses surprisingly
// often on real cellular paths) a detected failure instead of silently
// accepted garbage: a corrupted frame fails with ErrFrameChecksum, the
// connection is torn down, and the agent's batch retry takes over. Batches
// are idempotent: the server deduplicates on (deviceID, batchID), so an
// agent that times out waiting for an ack can safely resend.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"smartusage/internal/trace"
)

// FrameType identifies a protocol frame.
type FrameType uint8

// Frame types.
const (
	FrameHello FrameType = iota + 1
	FrameHelloAck
	FrameBatch
	FrameBatchAck
	FrameBye
	FrameError
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameBatch:
		return "batch"
	case FrameBatchAck:
		return "batch-ack"
	case FrameBye:
		return "bye"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// MaxFrameSize bounds one frame payload; a batch of a full day of samples
// fits comfortably.
const MaxFrameSize = 4 << 20

// Version is the protocol version carried in Hello. Version 2 added the
// per-frame CRC-32C trailer; version 3 added session resume (HelloAck
// carries the server's last fully-acked batch ID for the device, so an
// agent restarting from its disk spool can fast-forward past batches the
// server already has); version 4 made the hello replica-aware (Tier and
// Replica describe the agent's view of the collector tier, so a replica
// can count the sessions that reach it through failover).
const Version = 4

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")

// ErrFrameChecksum is returned when a frame fails its CRC, i.e. it was
// corrupted in flight.
var ErrFrameChecksum = errors.New("proto: frame checksum mismatch")

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Hello is the client's opening frame.
//
// Tier and Replica (version 4) carry the agent's view of the collector
// tier: Tier is how many replicas the agent is configured with (0 or 1 when
// untiered), Replica is this server's rank in the agent's device-specific
// rendezvous preference order. Rank 0 is the device's primary; anything
// higher means the agent failed past that many better-ranked replicas to
// get here, which is how a collector counts failover sessions without any
// cross-replica coordination.
type Hello struct {
	Version uint32
	Device  trace.DeviceID
	OS      trace.OS
	Token   string
	Tier    uint32
	Replica uint32
}

// HelloAck is the server's response to Hello. LastBatch is the highest
// batch ID the server has fully accepted and acked for this device (0 if
// none): a reconnecting agent treats any in-flight batch at or below it as
// already delivered and numbers new batches above it, which keeps batch IDs
// strictly increasing across agent restarts even if the local spool was
// lost.
type HelloAck struct {
	SessionID uint64
	LastBatch uint64
}

// Batch carries samples. BatchID must increase per device; the server
// acknowledges and deduplicates by it. A decoded Batch's sample strings alias
// the frame they were decoded from (see DecodeBatchAlias).
type Batch struct {
	BatchID uint64
	Samples []trace.Sample
}

// BatchAck acknowledges a batch.
type BatchAck struct {
	BatchID  uint64
	Accepted uint32 // samples newly accepted (0 for a duplicate batch)
}

// ErrorFrame reports a fatal protocol error before the server closes.
type ErrorFrame struct {
	Message string
}

// Conn wraps a stream with framed encode/decode. It is not safe for
// concurrent use; the agent and collector each drive one side of the
// conversation sequentially.
//
// A Conn costs little more than its largest frame each way: an outgoing
// frame is assembled in out and sent with one Write, and an incoming one is
// read through a small buffer into scratch. Every agent session and every
// collector connection holds one.
type Conn struct {
	w       io.Writer
	br      *bufio.Reader
	out     []byte // the frame being written: type, length, payload, checksum
	scratch []byte // the payload and checksum of the frame last read
	limit   int    // per-frame read cap; 0 means MaxFrameSize
}

// connReadBuf is a Conn's read buffer: enough for a frame's header and a
// small frame whole; a larger payload is read straight into scratch.
const connReadBuf = 4 << 10

// NewConn wraps rw (typically a *net.TCPConn).
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{w: rw, br: bufio.NewReaderSize(rw, connReadBuf)}
}

// SetReadLimit caps the payload size ReadFrame accepts, below the
// protocol-wide MaxFrameSize; n <= 0 restores the default. Servers use it
// to bound per-connection memory against oversized batches.
func (c *Conn) SetReadLimit(n int) {
	if n <= 0 || n > MaxFrameSize {
		n = MaxFrameSize
	}
	c.limit = n
}

// typeCRC[t] is the CRC-32C of the one type byte t, the running checksum a
// frame's payload continues.
var typeCRC = func() (sums [256]uint32) {
	for t := range sums {
		sums[t] = crc32.Update(0, crcTable, []byte{byte(t)})
	}
	return sums
}()

// frameCRC covers the type byte and payload.
func frameCRC(t FrameType, payload []byte) uint32 {
	return crc32.Update(typeCRC[t], crcTable, payload)
}

// WriteFrame sends one frame with a single Write.
func (c *Conn) WriteFrame(t FrameType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.out = append(c.out[:0], byte(t))
	c.out = binary.AppendUvarint(c.out, uint64(len(payload)))
	c.out = append(c.out, payload...)
	c.out = binary.BigEndian.AppendUint32(c.out, frameCRC(t, payload))
	if _, err := c.w.Write(c.out); err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads the next frame. The returned payload aliases an internal
// buffer valid until the next ReadFrame.
func (c *Conn) ReadFrame() (FrameType, []byte, error) {
	tb, err := c.br.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF passes through for clean closes
	}
	size, err := binary.ReadUvarint(c.br)
	if err != nil {
		return 0, nil, fmt.Errorf("proto: read length: %w", err)
	}
	limit := c.limit
	if limit == 0 {
		limit = MaxFrameSize
	}
	if size > uint64(limit) {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(c.scratch) < int(size)+4 {
		c.scratch = make([]byte, size+4)
	}
	c.scratch = c.scratch[:size+4]
	if _, err := io.ReadFull(c.br, c.scratch); err != nil {
		return 0, nil, fmt.Errorf("proto: read payload: %w", err)
	}
	payload := c.scratch[:size]
	if binary.BigEndian.Uint32(c.scratch[size:]) != frameCRC(FrameType(tb), payload) {
		return 0, nil, ErrFrameChecksum
	}
	return FrameType(tb), payload, nil
}

// --- payload codecs ---------------------------------------------------------

// AppendHello encodes h.
func AppendHello(dst []byte, h *Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = binary.AppendUvarint(dst, uint64(h.Device))
	dst = append(dst, byte(h.OS))
	dst = binary.AppendUvarint(dst, uint64(len(h.Token)))
	dst = append(dst, h.Token...)
	dst = binary.AppendUvarint(dst, uint64(h.Tier))
	dst = binary.AppendUvarint(dst, uint64(h.Replica))
	return dst
}

// DecodeHello decodes h from buf.
func DecodeHello(buf []byte, h *Hello) error {
	d := NewFieldReader(buf)
	h.Version = uint32(d.Uvarint())
	h.Device = trace.DeviceID(d.Uvarint())
	h.OS = trace.OS(d.Byte())
	h.Token = string(d.Bytes())
	h.Tier = uint32(d.Uvarint())
	h.Replica = uint32(d.Uvarint())
	return d.Finish("proto: decode hello")
}

// AppendHelloAck encodes a.
func AppendHelloAck(dst []byte, a *HelloAck) []byte {
	dst = binary.AppendUvarint(dst, a.SessionID)
	dst = binary.AppendUvarint(dst, a.LastBatch)
	return dst
}

// DecodeHelloAck decodes a from buf.
func DecodeHelloAck(buf []byte, a *HelloAck) error {
	d := NewFieldReader(buf)
	a.SessionID = d.Uvarint()
	a.LastBatch = d.Uvarint()
	return d.Finish("proto: decode hello-ack")
}

// AppendBatch encodes b: its ID, its sample count, then each sample's
// trace.AppendSample encoding behind a uvarint length. Each sample is encoded
// straight into dst and then moved up behind its length, so a warm dst
// makes the call allocation-free.
func AppendBatch(dst []byte, b *Batch) []byte {
	dst = binary.AppendUvarint(dst, b.BatchID)
	dst = binary.AppendUvarint(dst, uint64(len(b.Samples)))
	var prefix [binary.MaxVarintLen64]byte
	for i := range b.Samples {
		start := len(dst)
		dst = trace.AppendSample(dst, &b.Samples[i])
		k := binary.PutUvarint(prefix[:], uint64(len(dst)-start))
		dst = append(dst, prefix[:k]...)
		copy(dst[start+k:], dst[start:len(dst)-k])
		copy(dst[start:], prefix[:k])
	}
	return dst
}

// DecodeBatchAlias decodes b from buf, reusing b.Samples. It is zero-copy:
// sample string fields (ESSIDs) alias buf instead of being copied, so a warm
// decode into a reused Batch allocates nothing. The samples are valid only
// while buf is — a caller reading frames into a reused buffer
// (Conn.ReadFrame does) must fully consume the batch (sink it, or copy what
// it retains) before the next frame overwrites the buffer. The collector's
// per-connection loop has exactly that shape: decode, WAL-append the
// still-encoded payload, sink, ack, and only then read the next frame.
func DecodeBatchAlias(buf []byte, b *Batch) error {
	d := NewFieldReader(buf)
	b.BatchID = d.Uvarint()
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(len(buf)) {
		return fmt.Errorf("proto: batch: corrupt sample count %d", n)
	}
	if cap(b.Samples) < int(n) {
		b.Samples = make([]trace.Sample, n)
	}
	b.Samples = b.Samples[:n]
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		raw := d.Bytes()
		if d.Err() != nil {
			break
		}
		used, err := trace.DecodeSampleAlias(raw, &b.Samples[i])
		if err != nil {
			return fmt.Errorf("proto: batch sample %d: %w", i, err)
		}
		if used != len(raw) {
			return fmt.Errorf("proto: batch sample %d: trailing %d bytes", i, len(raw)-used)
		}
	}
	return d.Finish("proto: decode batch")
}

// AppendBatchAck encodes a.
func AppendBatchAck(dst []byte, a *BatchAck) []byte {
	dst = binary.AppendUvarint(dst, a.BatchID)
	dst = binary.AppendUvarint(dst, uint64(a.Accepted))
	return dst
}

// DecodeBatchAck decodes a from buf.
func DecodeBatchAck(buf []byte, a *BatchAck) error {
	d := NewFieldReader(buf)
	a.BatchID = d.Uvarint()
	a.Accepted = uint32(d.Uvarint())
	return d.Finish("proto: decode batch-ack")
}

// AppendErrorFrame encodes e.
func AppendErrorFrame(dst []byte, e *ErrorFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Message)))
	dst = append(dst, e.Message...)
	return dst
}

// DecodeErrorFrame decodes e from buf.
func DecodeErrorFrame(buf []byte, e *ErrorFrame) error {
	d := NewFieldReader(buf)
	e.Message = string(d.Bytes())
	return d.Finish("proto: decode error")
}

// FieldReader decodes the uvarint-framed fields of a binary payload: the
// wire frames here, and the WAL and journal records the collector and agent
// build the same way. The first failure sticks — later reads return zero
// values — so a decoder reads every field and checks once, at Finish.
type FieldReader struct {
	buf []byte
	off int
	err error
}

// NewFieldReader returns a reader positioned at the start of buf.
func NewFieldReader(buf []byte) FieldReader { return FieldReader{buf: buf} }

// Byte reads one byte.
func (d *FieldReader) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads one uvarint; a truncated or overflowing one fails the
// reader.
func (d *FieldReader) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.off += n
	return v
}

// Bytes reads a uvarint length and that many bytes, aliasing the payload.
func (d *FieldReader) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

// Err returns the reader's first failure, if any.
func (d *FieldReader) Err() error { return d.err }

// Finish reports the first failure, or bytes left unread, as an error
// under the caller's prefix.
func (d *FieldReader) Finish(prefix string) error {
	if d.err != nil {
		return fmt.Errorf("%s: %w", prefix, d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%s: %d trailing bytes", prefix, len(d.buf)-d.off)
	}
	return nil
}
