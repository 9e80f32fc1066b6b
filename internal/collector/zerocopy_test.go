package collector

import (
	"fmt"
	"testing"

	"smartusage/internal/agent"
	"smartusage/internal/trace"
)

// TestZeroCopyRetentionAcrossFrames guards the ownership rule of the
// collector's zero-copy batch decode: decoded ESSIDs alias the connection's
// reused frame buffer, so a sink retaining samples past its return must deep
// copy them (the test sink uses Sample.Clone). Each batch here carries ESSIDs
// the next batch overwrites in the shared buffer — a Clone that kept aliased
// string headers (or a sink that didn't copy) would see frame N's ESSIDs
// mutate into frame N+1's bytes, which this test catches by checking every
// retained ESSID after the session ends.
func TestZeroCopyRetentionAcrossFrames(t *testing.T) {
	_, addr, store, stop := startServer(t, "")
	defer stop()

	a, err := agent.New(agent.Config{
		Servers: []string{addr}, Device: 42, OS: trace.Android, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		s := mkSample(42, i)
		s.WiFiState = trace.WiFiAssociated
		// Same-length ESSIDs so consecutive frames reuse the buffer in
		// place, byte for byte — the worst case for an aliasing bug.
		s.APs = []trace.APObs{
			{BSSID: trace.BSSID(i), ESSID: fmt.Sprintf("essid-%04d", i), RSSI: -60, Channel: 1, Band: trace.Band24, Associated: true},
			{BSSID: trace.BSSID(1000 + i), ESSID: fmt.Sprintf("guest-%04d", i), RSSI: -75, Channel: 6, Band: trace.Band24},
		}
		a.Record(&s)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	store.mu.Lock()
	defer store.mu.Unlock()
	if len(store.samples) != n {
		t.Fatalf("collected %d samples, want %d", len(store.samples), n)
	}
	for i, s := range store.samples {
		want0, want1 := fmt.Sprintf("essid-%04d", i), fmt.Sprintf("guest-%04d", i)
		if len(s.APs) != 2 || s.APs[0].ESSID != want0 || s.APs[1].ESSID != want1 {
			t.Fatalf("sample %d ESSIDs = %+v, want %q/%q — retained strings were clobbered by a later frame",
				i, s.APs, want0, want1)
		}
	}
}
