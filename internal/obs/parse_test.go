package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSnapshotJSONRoundTrip: ParseJSON inverts MarshalJSON exactly (modulo
// help text, which the JSON exposition never carried).
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", L("code", "200")).Add(17)
	reg.Counter("requests_total", L("code", "500")).Add(3)
	reg.Counter("plain_total").Inc()
	reg.Gauge("inflight").Set(9)
	h := reg.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5)

	snap := reg.Snapshot()
	data, err := snap.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got.Counters, snap.Counters) {
		t.Fatalf("counters: got %+v want %+v", got.Counters, snap.Counters)
	}
	if !reflect.DeepEqual(got.Gauges, snap.Gauges) {
		t.Fatalf("gauges: got %+v want %+v", got.Gauges, snap.Gauges)
	}
	if !reflect.DeepEqual(got.Histograms, snap.Histograms) {
		t.Fatalf("histograms: got %+v want %+v", got.Histograms, snap.Histograms)
	}

	// Re-marshal must be byte-identical: determinism survives a round trip.
	again, err := got.MarshalJSON()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", data, again)
	}
}

func TestCounterTotal(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", L("code", "200")).Add(17)
	reg.Counter("requests_total", L("code", "500")).Add(3)
	reg.Counter("other_total").Add(100)
	snap := reg.Snapshot()
	if got := snap.CounterTotal("requests_total"); got != 20 {
		t.Fatalf("CounterTotal(requests_total) = %d, want 20", got)
	}
	if got := snap.CounterTotal("absent_total"); got != 0 {
		t.Fatalf("CounterTotal(absent_total) = %d, want 0", got)
	}
}

func TestParseJSONRejectsMalformedHistogram(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"counters":[],"gauges":[],"histograms":[{"name":"h","bounds":[1],"counts":[1],"sum":0,"count":1}]}`)); err == nil {
		t.Fatal("histogram with mismatched counts parsed without error")
	}
	if _, err := ParseJSON([]byte(`not json`)); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
