package trace

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func internSample() *Sample {
	return &Sample{
		Device:    42,
		OS:        Android,
		Time:      1_400_000_000,
		WiFiState: WiFiOn,
		CellRX:    12345,
		Apps: []AppTraffic{
			{Category: CatVideo, Iface: Cellular, RX: 1000, TX: 50},
			{Category: CatBrowser, Iface: WiFi, RX: 2000},
		},
		APs: []APObs{
			{BSSID: 0x1001, ESSID: "0000docomo", RSSI: -60, Channel: 1, Band: Band24},
			{BSSID: 0x1002, ESSID: "aterm-home", RSSI: -48, Channel: 6, Band: Band24, Associated: false},
			{BSSID: 0x1003, ESSID: "0000docomo", RSSI: -71, Channel: 11, Band: Band5},
		},
		Battery: 70,
	}
}

// TestDecodeSampleInternedSteadyStateAllocs pins the decode hot path's
// allocation contract: with a warm interner and a reused Sample, decoding
// allocates nothing — repeat ESSIDs reuse interned strings and the slices
// reuse their capacity. This is the per-sample cost a streamed pass, or a
// decode into in-memory shards, pays once per trace decode.
func TestDecodeSampleInternedSteadyStateAllocs(t *testing.T) {
	enc := AppendSample(nil, internSample())
	var out Sample
	var it interner
	if _, err := decodeSample(enc, &out, &it, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeSample(enc, &out, &it, false); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm interned decode allocates %.1f times per sample, want 0", allocs)
	}
}

// TestInternerDeduplicates checks repeat lookups return the same value and
// that the decode path wires the interner through: two observations of the
// same ESSID in one sample decode to equal strings.
func TestInternerDeduplicates(t *testing.T) {
	var it interner
	a := it.intern([]byte("0000docomo"))
	b := it.intern([]byte("0000docomo"))
	if a != b || a != "0000docomo" {
		t.Fatalf("intern broke equality: %q vs %q", a, b)
	}
	enc := AppendSample(nil, internSample())
	var out Sample
	if _, err := decodeSample(enc, &out, &it, false); err != nil {
		t.Fatal(err)
	}
	if out.APs[0].ESSID != "0000docomo" || out.APs[2].ESSID != "0000docomo" {
		t.Fatalf("decoded ESSIDs wrong: %q, %q", out.APs[0].ESSID, out.APs[2].ESSID)
	}
}

// TestInternerTableReset floods the interner past its entry cap and checks
// it keeps returning correct values (the cap only bounds memory; a hostile
// stream degrades to non-interned behaviour, never wrong strings).
func TestInternerTableReset(t *testing.T) {
	var it interner
	for i := 0; i < maxInternEntries+100; i++ {
		s := fmt.Sprintf("essid-%d", i)
		if got := it.intern([]byte(s)); got != s {
			t.Fatalf("intern(%q) = %q after %d inserts", s, got, i)
		}
	}
	if got := it.intern([]byte("after-reset")); got != "after-reset" {
		t.Fatalf("post-reset intern broken: %q", got)
	}
}

// TestInternerResetBoundaryExact pins the reset to exactly maxInternEntries:
// a hit on a brimming table must not reset it (the hit path precedes the cap
// check), the first novel string past the brim lands in a fresh table, and
// entries from before the reset are gone until re-interned.
func TestInternerResetBoundaryExact(t *testing.T) {
	var it interner
	keep := it.intern([]byte("keeper"))
	for i := 1; i < maxInternEntries; i++ {
		it.intern([]byte(fmt.Sprintf("essid-%05x", i)))
	}
	if len(it.m) != maxInternEntries {
		t.Fatalf("table holds %d entries after %d distinct interns, want %d", len(it.m), maxInternEntries, maxInternEntries)
	}
	got := it.intern([]byte("keeper"))
	if got != keep || unsafe.StringData(got) != unsafe.StringData(keep) {
		t.Fatal("hit on a full table returned a different allocation")
	}
	if len(it.m) != maxInternEntries {
		t.Fatalf("hit on a full table changed its size to %d", len(it.m))
	}
	it.intern([]byte("overflow"))
	if len(it.m) != 1 {
		t.Fatalf("first novel string past the cap left %d entries, want a fresh table of 1", len(it.m))
	}
	again := it.intern([]byte("keeper"))
	if again != "keeper" {
		t.Fatalf("re-intern after reset returned %q", again)
	}
	if unsafe.StringData(again) == unsafe.StringData(keep) {
		t.Fatal("reset table still serves the pre-reset allocation; the old table leaked into the new one")
	}
}

// TestInternerRewarmZeroAlloc: a reset only costs until the working set is
// re-observed — after one warming decode the hot path is zero-alloc again.
func TestInternerRewarmZeroAlloc(t *testing.T) {
	var it interner
	for i := 0; i <= maxInternEntries; i++ { // force a reset
		it.intern([]byte(fmt.Sprintf("essid-%05x", i)))
	}
	enc := AppendSample(nil, internSample())
	var out Sample
	if _, err := decodeSample(enc, &out, &it, false); err != nil { // re-warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeSample(enc, &out, &it, false); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-warmed decode allocates %.1f times per sample, want 0", allocs)
	}
}

// TestDecodeSampleInternedConcurrent decodes one shared buffer from many
// goroutines, each with its own interner and Sample — the documented
// concurrency contract (an interner is single-goroutine; the encoded buffer
// is read-only and shareable). Run under -race this proves the decode path
// never writes through the shared buffer.
func TestDecodeSampleInternedConcurrent(t *testing.T) {
	enc := AppendSample(nil, internSample())
	want := internSample()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var it interner
			var out Sample
			for i := 0; i < 500; i++ {
				if _, err := decodeSample(enc, &out, &it, false); err != nil {
					errs <- err
					return
				}
				if out.APs[0].ESSID != want.APs[0].ESSID || out.APs[2].ESSID != want.APs[2].ESSID {
					errs <- fmt.Errorf("goroutine decode corrupted ESSIDs: %+v", out.APs)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
