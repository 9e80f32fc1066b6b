package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Binary trace format
//
// A trace file is the 5-byte header "SMTR1" followed by records. Each record
// is a uvarint payload length and the payload itself. The payload packs the
// Sample fields in declaration order using unsigned varints, zig-zag varints
// for signed quantities, and length-prefixed bytes for strings. The format is
// self-delimiting and streams: the reader never needs to seek.

var fileMagic = []byte("SMTR1")

// MaxSampleSize bounds one encoded sample. It protects readers (and the
// collector, which shares this codec) from corrupt or hostile length
// prefixes. A legitimate sample is a few hundred bytes; 1 MiB is generous.
const MaxSampleSize = 1 << 20

// ErrBadMagic is returned when a trace stream does not start with the
// expected header.
var ErrBadMagic = errors.New("trace: bad magic (not a trace stream)")

// AppendSample encodes s and appends it (without a length prefix) to dst,
// returning the extended slice.
func AppendSample(dst []byte, s *Sample) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Device))
	dst = append(dst, byte(s.OS))
	dst = binary.AppendVarint(dst, s.Time)
	dst = binary.AppendVarint(dst, int64(s.GeoCX))
	dst = binary.AppendVarint(dst, int64(s.GeoCY))
	dst = append(dst, byte(s.WiFiState), byte(s.RAT), s.Carrier)
	dst = binary.AppendUvarint(dst, s.CellRX)
	dst = binary.AppendUvarint(dst, s.CellTX)
	dst = binary.AppendUvarint(dst, s.WiFiRX)
	dst = binary.AppendUvarint(dst, s.WiFiTX)
	dst = binary.AppendUvarint(dst, uint64(len(s.Apps)))
	for _, a := range s.Apps {
		dst = append(dst, byte(a.Category), byte(a.Iface))
		dst = binary.AppendUvarint(dst, a.RX)
		dst = binary.AppendUvarint(dst, a.TX)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.APs)))
	for i := range s.APs {
		ap := &s.APs[i]
		dst = binary.AppendUvarint(dst, uint64(ap.BSSID))
		dst = binary.AppendUvarint(dst, uint64(len(ap.ESSID)))
		dst = append(dst, ap.ESSID...)
		dst = binary.AppendVarint(dst, int64(ap.RSSI))
		dst = append(dst, ap.Channel, byte(ap.Band), boolByte(ap.Associated))
	}
	dst = append(dst, s.Battery, boolByte(s.Tethered))
	return dst
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// An interner deduplicates the strings a decode stream produces. ESSIDs
// repeat enormously — a campaign observes each access point thousands of
// times — so decoding every observation to a fresh string is the dominant
// allocation of the trace hot path (two thirds of BuildPrep-from-file's
// allocations before interning). An interner hands every repeat observation
// the same immutable string instead. Each Reader owns one; an interner is
// not safe for concurrent use.
type interner struct {
	m map[string]string
	// recent is a direct-mapped cache in front of m for the decoder's AP
	// loop, one slot per BSSID hash: a device reports the same few APs scan
	// after scan, so most ESSIDs resolve with one byte compare instead of a
	// string hash. Allocated on the first AP decode.
	recent *[internRecentSlots]string
}

// maxInternEntries bounds the table. Legitimate ESSID cardinality is tiny
// (thousands); a hostile stream of unique strings just degrades to the
// non-interned behaviour after the table resets.
const maxInternEntries = 1 << 16

// internRecentSlots sizes interner.recent (a power of two).
const internRecentSlots = 256

// intern returns a string equal to b, reusing a previous allocation when b
// has been seen before. The fast path (map hit) does not allocate.
func (it *interner) intern(b []byte) string {
	if s, ok := it.m[string(b)]; ok { // compiler avoids allocating the key
		return s
	}
	if it.m == nil || len(it.m) >= maxInternEntries {
		it.m = make(map[string]string, 256)
	}
	s := string(b)
	it.m[s] = s
	return s
}

// internESSID is intern for the ESSID of the AP with the given BSSID,
// checking the BSSID's recent slot first. Every slot holds a string some
// earlier intern returned, so a hit is as valid as a map hit.
func (it *interner) internESSID(bssid BSSID, b []byte) string {
	if it.recent == nil {
		it.recent = new([internRecentSlots]string)
	}
	slot := &it.recent[(uint64(bssid)*0x9e3779b97f4a7c15)>>(64-8)]
	if *slot == string(b) {
		return *slot
	}
	s := it.intern(b)
	*slot = s
	return s
}

// DecodeSample decodes one sample previously encoded by AppendSample and
// returns the number of bytes consumed.
func DecodeSample(buf []byte, s *Sample) (int, error) {
	return countDecode(decodeSample(buf, s, nil, false))
}

// DecodeSampleAlias is DecodeSample with zero-copy strings: decoded ESSIDs
// alias buf instead of being copied out, so a warm decode allocates nothing
// at all. The resulting sample (its string fields, specifically) is valid
// only while buf is — callers that reuse the buffer, like the collector's
// per-connection frame loop, must finish consuming the sample (sink it, or
// Clone-copy what they retain) before the next read overwrites buf. Aliased
// strings must never be handed to an interner: the intern table would pin
// the entire buffer and serve mutated strings after it is reused.
func DecodeSampleAlias(buf []byte, s *Sample) (int, error) {
	return countDecode(decodeSample(buf, s, nil, true))
}

// countDecode adds a successful one-sample decode to decodeCount.
func countDecode(n int, err error) (int, error) {
	if err == nil {
		decodeCount.Add(1)
	}
	return n, err
}

func decodeSample(buf []byte, s *Sample, it *interner, alias bool) (int, error) {
	d := decoder{buf: buf, intern: it, alias: alias}
	s.Device = DeviceID(d.uvarint())
	s.OS = OS(d.byte())
	s.Time = d.varint()
	for _, p := range [...]*int16{&s.GeoCX, &s.GeoCY} {
		v, ok := d.small()
		if !ok {
			v = d.uvarint()
		}
		*p = int16(unzigzag(v))
	}
	s.WiFiState = WiFiState(d.byte())
	s.RAT = RAT(d.byte())
	s.Carrier = d.byte()
	for _, p := range [...]*uint64{&s.CellRX, &s.CellTX, &s.WiFiRX, &s.WiFiTX} {
		v, ok := d.small()
		if !ok {
			v = d.uvarint()
		}
		*p = v
	}

	nApps, ok := d.small()
	if !ok {
		nApps = d.uvarint()
	}
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

	nAPs, ok := d.small()
	if !ok {
		nAPs = d.uvarint()
	}
	if d.err == nil && nAPs > uint64(len(buf)) {
		return 0, fmt.Errorf("trace: corrupt AP count %d", nAPs)
	}
	s.APs = s.APs[:0]
	for i := uint64(0); i < nAPs && d.err == nil; i++ {
		var ap APObs
		ap.BSSID = BSSID(d.uvarint())
		ap.ESSID = d.essid(ap.BSSID)
		rssi, ok := d.small()
		if !ok {
			rssi = d.uvarint()
		}
		ap.RSSI = int8(unzigzag(rssi))
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

// decodeCount counts the samples decoded since process start: one per
// successful DecodeSample or DecodeSampleAlias, and a Reader's samples in
// one addition when a read ends. It exists so benchmarks and tests can
// verify how many decode passes a pipeline performs; it is not a
// correctness mechanism.
var decodeCount atomic.Uint64

// DecodeCount returns the cumulative number of samples decoded in this
// process by DecodeSample, DecodeSampleAlias and Readers. A Reader adds its
// samples when ReadAll returns and when Read returns an error, io.EOF
// included, so the count is exact whenever no read is running.
func DecodeCount() uint64 { return decodeCount.Load() }

// decoder tracks an offset and a sticky error across field reads. The
// first error also empties buf, so the inlined fast paths need only their
// bounds check to return zero values from then on.
type decoder struct {
	buf    []byte
	off    int
	err    error
	intern *interner
	// alias makes string fields reference buf directly instead of copying.
	// Mutually exclusive with intern (an interner must only hold copies).
	alias bool
}

// fail records a truncated or malformed field.
func (d *decoder) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
	d.buf, d.off = nil, 0
}

func (d *decoder) byte() byte {
	if d.off < len(d.buf) {
		b := d.buf[d.off]
		d.off++
		return b
	}
	d.fail()
	return 0
}

// uvarint decodes an unsigned varint of any length. With at least
// binary.MaxVarintLen64 bytes left it decodes with constant shifts; nearer
// the end of buf it defers to binary.Uvarint. Both accept and reject exactly
// what binary.Uvarint does, non-minimal encodings included.
func (d *decoder) uvarint() uint64 {
	b := d.buf[d.off:]
	if len(b) < binary.MaxVarintLen64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			d.fail()
			return 0
		}
		d.off += n
		return v
	}
	b = b[:binary.MaxVarintLen64]
	var x uint64
	var n int
	switch {
	case b[0] < 0x80:
		x, n = uint64(b[0]), 1
	case b[1] < 0x80:
		x, n = uint64(b[0]&0x7f)|uint64(b[1])<<7, 2
	case b[2] < 0x80:
		x, n = uint64(b[0]&0x7f)|uint64(b[1]&0x7f)<<7|uint64(b[2])<<14, 3
	default:
		x = uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2]&0x7f)<<14
		switch {
		case b[3] < 0x80:
			x, n = x|uint64(b[3])<<21, 4
		case b[4] < 0x80:
			x, n = x|uint64(b[3]&0x7f)<<21|uint64(b[4])<<28, 5
		case b[5] < 0x80:
			x, n = x|uint64(b[3]&0x7f)<<21|uint64(b[4]&0x7f)<<28|uint64(b[5])<<35, 6
		case b[6] < 0x80:
			x, n = x|uint64(b[3]&0x7f)<<21|uint64(b[4]&0x7f)<<28|uint64(b[5]&0x7f)<<35|
				uint64(b[6])<<42, 7
		default:
			x |= uint64(b[3]&0x7f)<<21 | uint64(b[4]&0x7f)<<28 | uint64(b[5]&0x7f)<<35 |
				uint64(b[6]&0x7f)<<42
			switch {
			case b[7] < 0x80:
				x, n = x|uint64(b[7])<<49, 8
			case b[8] < 0x80:
				x, n = x|uint64(b[7]&0x7f)<<49|uint64(b[8])<<56, 9
			case b[9] <= 1: // a tenth byte carries only bit 63
				x, n = x|uint64(b[7]&0x7f)<<49|uint64(b[8]&0x7f)<<56|uint64(b[9])<<63, 10
			default: // overflows 64 bits
				d.fail()
				return 0
			}
		}
	}
	d.off += n
	return x
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

// unzigzag maps a zig-zag encoded varint back to its signed value.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// small decodes a one-byte varint; ok is false when the varint at the
// cursor is longer, or missing, and the caller must call uvarint. The
// compiler inlines small but not a function that also makes that call, so
// decodeSample reads the fields that are usually one byte long as small,
// then uvarint.
func (d *decoder) small() (uint64, bool) {
	if i := d.off; i < len(d.buf) && d.buf[i] < 0x80 {
		d.off = i + 1
		return uint64(d.buf[i]), true
	}
	return 0, false
}

// essid decodes the ESSID of the AP with the given BSSID.
func (d *decoder) essid(bssid BSSID) string {
	n, ok := d.small()
	if !ok {
		n = d.uvarint()
	}
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
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
		return d.intern.internESSID(bssid, raw)
	}
	return string(raw)
}

// Writer streams samples to an io.Writer in the binary trace format.
type Writer struct {
	bw *bufio.Writer
	// scratch holds the record being written: the body is encoded after
	// lenRoom reserved bytes and the length varint is put right in front
	// of it, so a record costs one buffered write and no allocation.
	scratch []byte
	n       int
	started bool
}

// lenRoom is the room Writer reserves for a record's length prefix; it fits
// any length, so no record is refused.
const lenRoom = binary.MaxVarintLen64

// NewWriter returns a Writer over w. The header is emitted lazily on the
// first Write so that an aborted run leaves no partial file header behind an
// empty stream.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), scratch: make([]byte, 0, 512)}
}

// Write encodes and appends one sample.
func (w *Writer) Write(s *Sample) error {
	w.scratch = AppendSample(w.scratch[:lenRoom], s)
	return w.writeRecord()
}

// WriteEncoded appends one sample that AppendSample already encoded, framed
// exactly as Write frames it, so a caller holding encoded samples writes a
// trace without decoding them. rec must be a whole AppendSample encoding.
func (w *Writer) WriteEncoded(rec []byte) error {
	w.scratch = append(w.scratch[:lenRoom], rec...)
	return w.writeRecord()
}

// writeRecord writes the record body in scratch[lenRoom:] behind its length
// prefix, emitting the header first if this is the stream's first record.
func (w *Writer) writeRecord() error {
	if !w.started {
		if _, err := w.bw.Write(fileMagic); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		w.started = true
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(w.scratch)-lenRoom))
	start := lenRoom - n
	copy(w.scratch[start:], lenBuf[:n])
	if _, err := w.bw.Write(w.scratch[start:]); err != nil {
		return fmt.Errorf("trace: write sample: %w", err)
	}
	w.n++
	return nil
}

// Count returns the number of samples written.
func (w *Writer) Count() int { return w.n }

// Flush forces buffered data to the underlying writer. Callers must Flush
// (or use a helper that does) before closing the underlying file.
func (w *Writer) Flush() error {
	if !w.started {
		// An empty trace still carries the magic so readers accept it.
		if _, err := w.bw.Write(fileMagic); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		w.started = true
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Reader streams samples from an io.Reader in the binary trace format. It
// interns decoded ESSIDs, so repeat observations of the same access point
// share one string allocation across the whole stream.
type Reader struct {
	br      *bufio.Reader
	buf     []byte
	it      interner
	checked bool
	// decoded counts the samples read but not yet added to decodeCount, so
	// concurrent Readers share no counter per sample.
	decoded uint64
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read decodes the next sample into s, reusing s's slices. It returns io.EOF
// at a clean end of stream.
func (r *Reader) Read(s *Sample) error {
	if err := r.read(s); err != nil {
		r.addCount()
		return err
	}
	r.decoded++
	return nil
}

// addCount adds the samples read since the last call to decodeCount.
func (r *Reader) addCount() {
	if r.decoded > 0 {
		decodeCount.Add(r.decoded)
		r.decoded = 0
	}
}

// read decodes the next record into s.
//
// A record whose length prefix and body are already buffered is decoded in
// place from the bufio buffer and then discarded; that is safe because
// decoded strings are interned copies, never aliases of the buffer, and such
// a record is within MaxSampleSize because the buffer is. A record
// straddling the buffer's end, or longer than the buffer, is read out into
// r.buf first.
func (r *Reader) read(s *Sample) error {
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
	if buf, _ := r.br.Peek(r.br.Buffered()); len(buf) > 0 {
		if size, n := binary.Uvarint(buf); n > 0 && size <= uint64(len(buf)-n) {
			err := r.decode(buf[n:n+int(size)], s)
			_, _ = r.br.Discard(n + int(size)) // the bytes are buffered: it cannot fail
			return err
		}
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
	return r.decode(r.buf, s)
}

// decode decodes one whole record.
func (r *Reader) decode(rec []byte, s *Sample) error {
	n, err := decodeSample(rec, s, &r.it, false)
	if err != nil {
		return err
	}
	if n != len(rec) {
		return fmt.Errorf("trace: sample decoded %d of %d bytes", n, len(rec))
	}
	return nil
}

// ReadAll drains the stream, calling fn for each sample. The *Sample passed
// to fn is reused between calls; fn must copy it to retain it.
func (r *Reader) ReadAll(fn func(*Sample) error) error {
	defer r.addCount()
	var s Sample
	for {
		err := r.Read(&s)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(&s); err != nil {
			return err
		}
	}
}

// Sniff picks r's decoder from its first bytes. A stream that starts with
// the binary header, or stops inside it (an empty one included), is read as
// a binary trace, anything else as JSON Lines. It returns the chosen
// reader's ReadAll and the format's name, "binary" or "jsonl"; on a stream
// that stops inside the header, that ReadAll fails with the short-header
// ErrBadMagic.
func Sniff(r io.Reader) (readAll func(fn func(*Sample) error) error, format string, err error) {
	br := bufio.NewReaderSize(r, 1<<16) // NewReader keeps it as its own buffer
	head, err := br.Peek(len(fileMagic))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, "", fmt.Errorf("trace: sniff format: %w", err)
	}
	if bytes.HasPrefix(fileMagic, head) {
		return NewReader(br).ReadAll, "binary", nil
	}
	return NewJSONLReader(br).ReadAll, "jsonl", nil
}

// Clone returns a deep copy of s, including its slices and strings. String
// fields are re-copied because a sample from DecodeSampleAlias (the
// collector's zero-copy path) holds ESSIDs that alias a reused frame buffer;
// a Clone must outlive that buffer.
func (s *Sample) Clone() *Sample {
	out := *s
	if s.Apps != nil {
		out.Apps = append([]AppTraffic(nil), s.Apps...)
	}
	if s.APs != nil {
		out.APs = append([]APObs(nil), s.APs...)
		for i := range out.APs {
			out.APs[i].ESSID = strings.Clone(out.APs[i].ESSID)
		}
	}
	return &out
}
