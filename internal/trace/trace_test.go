package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randomSample generates a structurally valid random sample.
func randomSample(rng *rand.Rand) Sample {
	s := Sample{
		Device:    DeviceID(rng.Uint64()),
		OS:        OS(rng.Intn(int(numOS))),
		Time:      rng.Int63n(2_000_000_000),
		GeoCX:     int16(rng.Intn(64)),
		GeoCY:     int16(rng.Intn(64)),
		WiFiState: WiFiState(rng.Intn(int(numWiFiState))),
		RAT:       RAT(rng.Intn(int(numRAT))),
		Carrier:   uint8(rng.Intn(3)),
		CellRX:    uint64(rng.Int63n(1 << 40)),
		CellTX:    uint64(rng.Int63n(1 << 30)),
		WiFiRX:    uint64(rng.Int63n(1 << 40)),
		WiFiTX:    uint64(rng.Int63n(1 << 30)),
		Battery:   uint8(rng.Intn(101)),
		Tethered:  rng.Intn(5) == 0,
	}
	if s.OS == Android {
		for i, n := 0, rng.Intn(5); i < n; i++ {
			s.Apps = append(s.Apps, AppTraffic{
				Category: Category(rng.Intn(int(NumCategories))),
				Iface:    Iface(rng.Intn(int(numIface))),
				RX:       uint64(rng.Int63n(1 << 20)),
				TX:       uint64(rng.Int63n(1 << 16)),
			})
		}
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		s.APs = append(s.APs, APObs{
			BSSID:   BSSID(rng.Uint64() & 0xffffffffffff),
			ESSID:   essids[rng.Intn(len(essids))],
			RSSI:    int8(-20 - rng.Intn(75)),
			Channel: uint8(1 + rng.Intn(13)),
			Band:    Band(rng.Intn(int(numBand))),
		})
	}
	return s
}

var essids = []string{"0000docomo", "aterm-1f3a-g", "corp-77", "日本語SSID", ""}

func samplesEqual(a, b *Sample) bool {
	ac, bc := *a, *b
	if len(ac.Apps) == 0 {
		ac.Apps = nil
	}
	if len(bc.Apps) == 0 {
		bc.Apps = nil
	}
	if len(ac.APs) == 0 {
		ac.APs = nil
	}
	if len(bc.APs) == 0 {
		bc.APs = nil
	}
	return reflect.DeepEqual(ac, bc)
}

// Property: binary encode/decode is the identity.
func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomSample(rng)
		buf := AppendSample(nil, &in)
		var out Sample
		n, err := DecodeSample(buf, &out)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if n != len(buf) {
			t.Logf("consumed %d of %d", n, len(buf))
			return false
		}
		return samplesEqual(&in, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: JSONL encode/decode is the identity.
func TestJSONLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomSample(rng)
		line, err := MarshalJSONSample(&in)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		var out Sample
		if err := UnmarshalJSONSample(line, &out); err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		return samplesEqual(&in, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var in []Sample
	for i := 0; i < 257; i++ {
		in = append(in, randomSample(rng))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range in {
		if err := w.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(in) {
		t.Fatalf("count %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	var out []Sample
	if err := r.ReadAll(func(s *Sample) error {
		out = append(out, *s.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if !samplesEqual(&in[i], &out[i]) {
			t.Fatalf("sample %d mismatch:\n in=%+v\nout=%+v", i, in[i], out[i])
		}
	}
}

// The Writer's framing is the magic, then per record the uvarint body
// length and the AppendSample body, whether the Writer encodes the sample
// (Write) or is handed the body (WriteEncoded). Records here span one- to
// three-byte length prefixes, and the last one outgrows the Writer's 64 KiB
// buffer.
func TestWriterFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var in []Sample
	for i := 0; i < 64; i++ {
		in = append(in, randomSample(rng))
	}
	big := randomSample(rng)
	for i := 0; i < 500; i++ { // ~100 KB
		big.APs = append(big.APs, APObs{BSSID: BSSID(i), ESSID: strings.Repeat("x", 200)})
	}
	in = append(in, Sample{}, big)

	want := append([]byte(nil), fileMagic...)
	var buf, encBuf bytes.Buffer
	w, enc := NewWriter(&buf), NewWriter(&encBuf)
	for i := range in {
		body := AppendSample(nil, &in[i])
		want = binary.AppendUvarint(want, uint64(len(body)))
		want = append(want, body...)
		if err := w.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteEncoded(body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer emitted %d bytes that differ from the %d-byte reference framing", buf.Len(), len(want))
	}
	if !bytes.Equal(encBuf.Bytes(), want) {
		t.Fatalf("WriteEncoded emitted %d bytes that differ from the %d-byte reference framing", encBuf.Len(), len(want))
	}
}

// A warm Writer allocates nothing per record: the length prefix is encoded
// in front of the body in the Writer's own scratch.
func TestWriterSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in []Sample
	for i := 0; i < 32; i++ {
		in = append(in, randomSample(rng))
	}
	w := NewWriter(io.Discard)
	for i := range in { // warm: header written, scratch grown
		if err := w.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Write(&in[i%len(in)]); err != nil {
			panic(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm Writer.Write allocates %.1f times per record, want 0", allocs)
	}
}

func TestEmptyTraceHasMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var s Sample
	if err := r.Read(&s); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF on empty trace, got %v", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOTATRACE"))
	var s Sample
	if err := r.Read(&s); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	r := NewReader(strings.NewReader("SM"))
	var s Sample
	if err := r.Read(&s); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestReaderOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("SMTR1")
	// Length prefix far over MaxSampleSize.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	r := NewReader(&buf)
	var s Sample
	if err := r.Read(&s); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("want size-limit error, got %v", err)
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomSample(rng)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trimmed := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(trimmed))
	var s Sample
	if err := r.Read(&s); err == nil {
		t.Fatal("truncated record decoded")
	}
}

func TestDecodeSampleCorruptCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomSample(rng)
	buf := AppendSample(nil, &in)
	// Flip bytes at each position; decoding must either error or consume
	// only valid bytes — never panic.
	for i := range buf {
		mutated := append([]byte(nil), buf...)
		mutated[i] ^= 0xff
		var out Sample
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at flip %d: %v", i, r)
				}
			}()
			DecodeSample(mutated, &out)
		}()
	}
}

func TestSampleValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := func() Sample {
		s := randomSample(rng)
		s.OS = Android
		s.WiFiState = WiFiOn
		s.Apps = nil
		for i := range s.APs {
			s.APs[i].Associated = false
		}
		return s
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Sample)
	}{
		{"bad os", func(s *Sample) { s.OS = 99 }},
		{"bad wifi state", func(s *Sample) { s.WiFiState = 99 }},
		{"bad rat", func(s *Sample) { s.RAT = 99 }},
		{"bad carrier", func(s *Sample) { s.Carrier = 9 }},
		{"battery", func(s *Sample) { s.Battery = 101 }},
		{"assoc while off", func(s *Sample) {
			s.WiFiState = WiFiOff
			s.APs = []APObs{{Associated: true}}
		}},
		{"state assoc without AP", func(s *Sample) { s.WiFiState = WiFiAssociated; s.APs = nil }},
		{"two associated", func(s *Sample) {
			s.WiFiState = WiFiAssociated
			s.APs = []APObs{{Associated: true}, {Associated: true}}
		}},
		{"wifi traffic while off", func(s *Sample) {
			s.WiFiState = WiFiOff
			s.APs = nil
			s.WiFiRX = 10
		}},
		{"bad category", func(s *Sample) { s.Apps = []AppTraffic{{Category: 99}} }},
		{"bad app iface", func(s *Sample) { s.Apps = []AppTraffic{{Category: CatVideo, Iface: 9}} }},
		{"app exceeds counters", func(s *Sample) {
			s.CellRX = 5
			s.Apps = []AppTraffic{{Category: CatVideo, Iface: Cellular, RX: 100}}
		}},
		{"ios with apps", func(s *Sample) {
			s.OS = IOS
			s.CellRX = 1000
			s.Apps = []AppTraffic{{Category: CatVideo, Iface: Cellular, RX: 10}}
		}},
		{"bad band", func(s *Sample) { s.APs = []APObs{{Band: 9}} }},
	}
	for _, c := range cases {
		s := base()
		s.WiFiRX, s.WiFiTX = 1000, 1000
		s.CellRX, s.CellTX = 1000, 1000
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid sample accepted", c.name)
		}
	}
}

func TestAssociatedAP(t *testing.T) {
	s := Sample{APs: []APObs{{BSSID: 1}, {BSSID: 2, Associated: true}}}
	if ap := s.AssociatedAP(); ap == nil || ap.BSSID != 2 {
		t.Fatalf("associated AP %v", s.AssociatedAP())
	}
	s2 := Sample{APs: []APObs{{BSSID: 1}}}
	if s2.AssociatedAP() != nil {
		t.Fatal("unexpected associated AP")
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSample(rng)
	for len(s.APs) == 0 {
		s = randomSample(rng)
	}
	c := s.Clone()
	if !samplesEqual(&s, c) {
		t.Fatal("clone differs")
	}
	c.APs[0].RSSI = -1
	if s.APs[0].RSSI == -1 {
		t.Fatal("clone shares APs backing array")
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Android.String(), "android"},
		{IOS.String(), "ios"},
		{Cellular.String(), "cellular"},
		{WiFi.String(), "wifi"},
		{RAT3G.String(), "3g"},
		{RATLTE.String(), "lte"},
		{Band24.String(), "2.4GHz"},
		{Band5.String(), "5GHz"},
		{WiFiOff.String(), "off"},
		{WiFiAssociated.String(), "associated"},
		{BSSID(0x0011223344ff).String(), "00:11:22:33:44:ff"},
		{DeviceID(0xabc).String(), "0000000000000abc"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestCategories(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		if !c.Valid() {
			t.Fatalf("invalid category %d", c)
		}
		name := c.String()
		if seen[name] {
			t.Fatalf("duplicate category name %q", name)
		}
		seen[name] = true
		back, ok := CategoryByName(name)
		if !ok || back != c {
			t.Fatalf("CategoryByName(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := CategoryByName("nope"); ok {
		t.Fatal("unknown category resolved")
	}
}

func TestJSONLWriterReader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in []Sample
	for i := 0; i < 30; i++ {
		in = append(in, randomSample(rng))
	}
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for i := range in {
		if err := w.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewJSONLReader(&buf)
	n := 0
	if err := r.ReadAll(func(s *Sample) error {
		if !samplesEqual(&in[n], s) {
			t.Fatalf("sample %d mismatch", n)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(in) {
		t.Fatalf("read %d of %d", n, len(in))
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	var s Sample
	for _, line := range []string{
		"{not json",
		`{"device":"zz","os":"android"}`,
		`{"device":"01","os":"windows"}`,
		`{"device":"01","os":"android","wifi_state":"maybe"}`,
		`{"device":"01","os":"android","wifi_state":"off","rat":"4g"}`,
	} {
		if err := UnmarshalJSONSample([]byte(line), &s); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestSampleTotals(t *testing.T) {
	s := Sample{Time: 1425254400, CellRX: 3, WiFiRX: 4, CellTX: 1, WiFiTX: 2}
	if s.TotalRX() != 7 || s.TotalTX() != 3 {
		t.Fatalf("totals %d/%d", s.TotalRX(), s.TotalTX())
	}
}

// Sniff recognizes a binary trace and its JSON Lines form, and both decode
// to the samples written; binary → JSONL → binary through the two writers
// reproduces the binary trace byte for byte.
func TestSniffPicksFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var in []Sample
	for i := 0; i < 40; i++ {
		in = append(in, randomSample(rng))
	}
	var bin bytes.Buffer
	bw := NewWriter(&bin)
	for i := range in {
		if err := bw.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// convert sniffs src, checks its format and samples, and writes them
	// through to (a Writer's or JSONLWriter's Write and Flush).
	convert := func(src []byte, wantFormat string, write func(*Sample) error, flush func() error) {
		t.Helper()
		readAll, format, err := Sniff(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if format != wantFormat {
			t.Fatalf("sniffed %q, want %q", format, wantFormat)
		}
		n := 0
		if err := readAll(func(s *Sample) error {
			if n >= len(in) || !samplesEqual(&in[n], s) {
				t.Fatalf("%s sample %d differs from the one written", format, n)
			}
			n++
			return write(s)
		}); err != nil {
			t.Fatal(err)
		}
		if n != len(in) {
			t.Fatalf("%s: read %d of %d samples", format, n, len(in))
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
	}
	var jsonl, back bytes.Buffer
	jw := NewJSONLWriter(&jsonl)
	convert(bin.Bytes(), "binary", jw.Write, jw.Flush)
	w := NewWriter(&back)
	convert(jsonl.Bytes(), "jsonl", w.Write, w.Flush)
	if !bytes.Equal(back.Bytes(), bin.Bytes()) {
		t.Fatalf("binary → JSONL → binary: %d bytes, want the original %d", back.Len(), bin.Len())
	}
}

// An empty stream is read as binary, so it fails as the binary reader does
// on a short header.
func TestSniffEmptyInput(t *testing.T) {
	readAll, format, err := Sniff(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if format != "binary" {
		t.Fatalf("sniffed %q, want binary", format)
	}
	err = readAll(func(*Sample) error { return nil })
	if !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), "short header") {
		t.Fatalf("want the short-header ErrBadMagic, got %v", err)
	}
}

// TestReaderAddsDecodeCountWhenReadEnds checks when a Reader's samples
// reach DecodeCount: not while ReadAll runs, so concurrent Readers share no
// counter per sample, but all of them when it returns, also when fn stops
// it early, and when Read returns io.EOF.
func TestReaderAddsDecodeCountWhenReadEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 100
	for i := 0; i < n; i++ {
		s := randomSample(rng)
		if err := w.Write(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	start := DecodeCount()
	seen := 0
	if err := NewReader(bytes.NewReader(enc)).ReadAll(func(*Sample) error {
		if got := DecodeCount(); got != start {
			t.Fatalf("DecodeCount moved by %d during ReadAll", got-start)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := DecodeCount() - start; got != n || seen != n {
		t.Fatalf("ReadAll of %d samples: fn saw %d, DecodeCount rose by %d", n, seen, got)
	}

	start = DecodeCount()
	stop := errors.New("stop")
	seen = 0
	err := NewReader(bytes.NewReader(enc)).ReadAll(func(*Sample) error {
		if seen++; seen == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("ReadAll returned %v, want fn's error", err)
	}
	if got := DecodeCount() - start; got != 10 {
		t.Fatalf("ReadAll stopped after 10 samples: DecodeCount rose by %d", got)
	}

	start = DecodeCount()
	r := NewReader(bytes.NewReader(enc))
	var s Sample
	for {
		if err := r.Read(&s); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got := DecodeCount() - start; got != n {
		t.Fatalf("Read to io.EOF over %d samples: DecodeCount rose by %d", n, got)
	}
}
