package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// This file keeps the previous binary decoder — a byte-at-a-time length
// read, a copy of each record, and one binary.Uvarint call per field — as
// the oracle the in-place decoder is checked against (decode_diff_test.go).
// It is test-only and must not change: the differential tests are only as
// good as its fidelity to the decoder it stands for. The one deliberate
// difference is that it leaves the process-wide decode count alone.

// refDecodeSample is the reference decodeSample.
func refDecodeSample(buf []byte, s *Sample, it *interner, alias bool) (int, error) {
	d := refDecoder{buf: buf, intern: it, alias: alias}
	s.Device = DeviceID(d.uvarint())
	s.OS = OS(d.byte())
	s.Time = d.varint()
	s.GeoCX = int16(d.varint())
	s.GeoCY = int16(d.varint())
	s.WiFiState = WiFiState(d.byte())
	s.RAT = RAT(d.byte())
	s.Carrier = d.byte()
	s.CellRX = d.uvarint()
	s.CellTX = d.uvarint()
	s.WiFiRX = d.uvarint()
	s.WiFiTX = d.uvarint()

	nApps := d.uvarint()
	if d.err == nil && nApps > uint64(len(buf)) {
		return 0, fmt.Errorf("trace: corrupt app count %d", nApps)
	}
	s.Apps = s.Apps[:0]
	for i := uint64(0); i < nApps && d.err == nil; i++ {
		var a AppTraffic
		a.Category = Category(d.byte())
		a.Iface = Iface(d.byte())
		a.RX = d.uvarint()
		a.TX = d.uvarint()
		s.Apps = append(s.Apps, a)
	}

	nAPs := d.uvarint()
	if d.err == nil && nAPs > uint64(len(buf)) {
		return 0, fmt.Errorf("trace: corrupt AP count %d", nAPs)
	}
	s.APs = s.APs[:0]
	for i := uint64(0); i < nAPs && d.err == nil; i++ {
		var ap APObs
		ap.BSSID = BSSID(d.uvarint())
		ap.ESSID = d.string()
		ap.RSSI = int8(d.varint())
		ap.Channel = d.byte()
		ap.Band = Band(d.byte())
		ap.Associated = d.byte() != 0
		s.APs = append(s.APs, ap)
	}

	s.Battery = d.byte()
	s.Tethered = d.byte() != 0
	if d.err != nil {
		return 0, fmt.Errorf("trace: decode sample: %w", d.err)
	}
	return d.off, nil
}

// refDecoder is the reference decoder state.
type refDecoder struct {
	buf    []byte
	off    int
	err    error
	intern *interner
	alias  bool
}

func (d *refDecoder) byte() byte {
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

func (d *refDecoder) uvarint() uint64 {
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

func (d *refDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.off += n
	return v
}

func (d *refDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	raw := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if d.alias {
		if len(raw) == 0 {
			return ""
		}
		return unsafe.String(&raw[0], len(raw))
	}
	if d.intern != nil {
		return d.intern.intern(raw)
	}
	return string(raw)
}

// refReader is the reference Reader: every record's length is read byte by
// byte and its body copied out of the bufio buffer before decoding.
type refReader struct {
	br      *bufio.Reader
	buf     []byte
	it      interner
	checked bool
}

func newRefReader(r io.Reader) *refReader {
	return &refReader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (r *refReader) Read(s *Sample) error {
	if !r.checked {
		hdr := make([]byte, len(fileMagic))
		if _, err := io.ReadFull(r.br, hdr); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("trace: short header: %w", ErrBadMagic)
			}
			return fmt.Errorf("trace: read header: %w", err)
		}
		if string(hdr) != string(fileMagic) {
			return ErrBadMagic
		}
		r.checked = true
	}
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("trace: read length: %w", err)
	}
	if size > MaxSampleSize {
		return fmt.Errorf("trace: sample length %d exceeds limit %d", size, MaxSampleSize)
	}
	if cap(r.buf) < int(size) {
		r.buf = make([]byte, size)
	}
	r.buf = r.buf[:size]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return fmt.Errorf("trace: read sample body: %w", err)
	}
	n, err := refDecodeSample(r.buf, s, &r.it, false)
	if err != nil {
		return err
	}
	if n != int(size) {
		return fmt.Errorf("trace: sample decoded %d of %d bytes", n, size)
	}
	return nil
}
