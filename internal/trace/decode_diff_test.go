package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
)

// These tests hold the decoder to the reference decoder of refcodec_test.go:
// the same bytes consumed, the same error, and the same sample — also when
// the decode fails partway.

// decodeModes runs one decode of data in each of the three decode modes,
// through the decoder under test or the reference.
var decodeModes = []struct {
	name string
	got  func(data []byte, s *Sample, it *interner) (int, error)
	want func(data []byte, s *Sample, it *interner) (int, error)
}{
	{
		"DecodeSample",
		func(data []byte, s *Sample, _ *interner) (int, error) { return DecodeSample(data, s) },
		func(data []byte, s *Sample, _ *interner) (int, error) { return refDecodeSample(data, s, nil, false) },
	},
	{
		"interned",
		func(data []byte, s *Sample, it *interner) (int, error) { return decodeSample(data, s, it, false) },
		func(data []byte, s *Sample, it *interner) (int, error) { return refDecodeSample(data, s, it, false) },
	},
	{
		"DecodeSampleAlias",
		func(data []byte, s *Sample, _ *interner) (int, error) { return DecodeSampleAlias(data, s) },
		func(data []byte, s *Sample, _ *interner) (int, error) { return refDecodeSample(data, s, nil, true) },
	},
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecodeMatchesReference decodes data in every mode with both decoders
// and fails on any difference. The interners persist across calls, so the
// interned mode also sees warm tables and recent-ESSID slots.
func checkDecodeMatchesReference(t *testing.T, data []byte, its *[2]interner) {
	t.Helper()
	for _, m := range decodeModes {
		var got, want Sample
		gn, gerr := m.got(data, &got, &its[0])
		wn, werr := m.want(data, &want, &its[1])
		if gn != wn || errText(gerr) != errText(werr) {
			t.Fatalf("%s(%x): got (%d, %v), reference (%d, %v)", m.name, data, gn, gerr, wn, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%x): got %+v, reference %+v", m.name, data, got, want)
		}
	}
}

// overlongVarints returns encodings at and past the edges binary.Uvarint
// draws: non-minimal but valid, the largest ten-byte value, a tenth byte
// that overflows, an eleventh byte, and an unterminated run.
func overlongVarints() [][]byte {
	return [][]byte{
		{0x80, 0x00},
		{0xff, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		{0xff, 0xff, 0xff},
	}
}

// decodeSeeds returns encodings that exercise every field path: random
// samples, their truncations (so varints end in the last ten bytes, where
// the decoder switches to binary.Uvarint), and over-long varints spliced in
// as the device ID and as the first AP's BSSID.
func decodeSeeds() [][]byte {
	rng := rand.New(rand.NewSource(11))
	var seeds [][]byte
	for i := 0; i < 16; i++ {
		s := randomSample(rng)
		enc := AppendSample(nil, &s)
		seeds = append(seeds, enc)
		for _, cut := range []int{1, 5, 9, 10, 11, len(enc) / 2} {
			if cut < len(enc) {
				seeds = append(seeds, enc[:len(enc)-cut])
			}
		}
	}
	s := randomSample(rng)
	s.APs = []APObs{{BSSID: 7, ESSID: "0000docomo", RSSI: -70, Channel: 1}}
	enc := AppendSample(nil, &s)
	devLen := len(binary.AppendUvarint(nil, uint64(s.Device)))
	apAt := bytes.LastIndex(enc, []byte{7, 10, '0', '0', '0', '0'})
	for _, v := range overlongVarints() {
		seeds = append(seeds, v)
		seeds = append(seeds, append(append([]byte{}, v...), enc[devLen:]...))
		spliced := append(append(append([]byte{}, enc[:apAt]...), v...), enc[apAt+1:]...)
		seeds = append(seeds, spliced)
	}
	seeds = append(seeds, []byte{}, []byte("000000000000\x00\x00000"))
	return seeds
}

// FuzzDecodeSampleMatchesReference checks arbitrary bytes against the
// reference decoder in every decode mode; go test runs the seeds.
func FuzzDecodeSampleMatchesReference(f *testing.F) {
	for _, data := range decodeSeeds() {
		f.Add(data)
	}
	var its [2]interner
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesReference(t, data, &its)
	})
}

// sampleReader is the Read method shared by Reader and the reference.
type sampleReader interface{ Read(*Sample) error }

// drain reads r to its first error and returns every sample read and that
// error's text ("" at a clean EOF).
func drain(r sampleReader) ([]*Sample, string) {
	var out []*Sample
	var s Sample
	for {
		err := r.Read(&s)
		if errors.Is(err, io.EOF) {
			return out, ""
		}
		if err != nil {
			return out, err.Error()
		}
		out = append(out, s.Clone())
	}
}

// encodeStream returns a trace stream: the header, then each record's
// length prefix and body.
func encodeStream(records ...[]byte) []byte {
	out := append([]byte{}, fileMagic...)
	for _, rec := range records {
		out = binary.AppendUvarint(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return out
}

// TestReaderMatchesReference feeds Reader and the reference reader the same
// streams — records straddling and exceeding the 64 KiB buffer, and each
// way a stream can end badly — through whole, halved and one-byte reads,
// and requires the same samples and the same error.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var many [][]byte
	size := 0
	for size < 3<<16 {
		s := randomSample(rng)
		many = append(many, AppendSample(nil, &s))
		size += len(many[len(many)-1]) + 2
	}
	huge := randomSample(rng)
	huge.APs = nil
	for i := 0; len(AppendSample(nil, &huge)) <= 1<<17; i++ {
		huge.APs = append(huge.APs, APObs{BSSID: BSSID(i), ESSID: fmt.Sprintf("essid-%060d", i)})
	}
	hugeRec := AppendSample(nil, &huge)
	tethered := internSample()
	tethered.Tethered = true // a last byte a stale zero cannot stand in for
	small := AppendSample(nil, tethered)
	padded := append(append([]byte{}, small...), 0, 0, 0)
	corrupt := append([]byte{}, small[:len(small)-3]...)

	cases := []struct {
		name   string
		stream []byte
		err    bool
	}{
		{"straddles buffer", encodeStream(many...), false},
		{"larger than buffer", encodeStream(small, hugeRec, small), false},
		{"empty", encodeStream(), false},
		{"truncated length", append(encodeStream(small), 0x80), true},
		{"truncated body", encodeStream(small, small)[:len(encodeStream(small, small))-4], true},
		{"over limit", binary.AppendUvarint(encodeStream(small), MaxSampleSize+1), true},
		{"trailing bytes in record", encodeStream(small, padded), true},
		{"corrupt record", encodeStream(small, corrupt), true},
		{"short header", fileMagic[:3], true},
		{"bad magic", []byte("SMTR0"), true},
	}
	straddles := false
	for off, i := len(fileMagic), 0; i < len(many); i++ {
		end := off + len(binary.AppendUvarint(nil, uint64(len(many[i])))) + len(many[i])
		if off/(1<<16) != (end-1)/(1<<16) {
			straddles = true
		}
		off = end
	}
	if !straddles {
		t.Fatal("no record straddles a 64 KiB boundary")
	}
	if len(hugeRec) <= 1<<16 {
		t.Fatalf("huge record is %d bytes, not larger than the buffer", len(hugeRec))
	}
	for _, c := range cases {
		for _, feed := range readerFeeds(c.stream) {
			got, gerr := drain(NewReader(feed.open()))
			want, werr := drain(newRefReader(feed.open()))
			if gerr != werr {
				t.Errorf("%s/%s: error %q, reference %q", c.name, feed.name, gerr, werr)
			}
			if (werr != "") != c.err {
				t.Errorf("%s/%s: reference error %q, want error %v", c.name, feed.name, werr, c.err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: read %d samples, reference %d, or they differ", c.name, feed.name, len(got), len(want))
			}
		}
	}
}

// readerFeed opens one way of delivering a stream to a reader.
type readerFeed struct {
	name string
	open func() io.Reader
}

// readerFeeds delivers stream whole, in halves and byte by byte, and, when
// it is short, split in two at every offset: bufio's first fill then ends
// exactly there, so some record is cut at every possible byte.
func readerFeeds(stream []byte) []readerFeed {
	feeds := []readerFeed{
		{"whole", func() io.Reader { return bytes.NewReader(stream) }},
		{"half", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) }},
		{"byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }},
	}
	if len(stream) < 1024 {
		for k := 1; k < len(stream); k++ {
			feeds = append(feeds, readerFeed{fmt.Sprintf("split at %d", k), func() io.Reader {
				return io.MultiReader(bytes.NewReader(stream[:k]), bytes.NewReader(stream[k:]))
			}})
		}
	}
	return feeds
}
