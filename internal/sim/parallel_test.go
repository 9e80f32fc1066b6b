package sim

import (
	"reflect"
	"strings"
	"testing"

	"smartusage/internal/config"
	"smartusage/internal/trace"
)

// RunConcurrent must produce the identical stream of Run, in order, at any
// worker count, including the shop APs users open along the way: naming one
// draws from the deployment's shared random source, so it must happen in
// panel order whichever worker simulated the user. Run it under -race.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	for _, year := range config.Years {
		cfg := smallConfig(t, year)
		seq := runSim(t, cfg)
		shops := 0
		for i := range seq {
			for _, ap := range seq[i].APs {
				if ap.Associated && isShopESSID(ap.ESSID) {
					shops++
				}
			}
		}
		if shops == 0 {
			t.Fatalf("%d: fixture holds no shop-AP association", year)
		}
		for _, workers := range []int{2, 4} {
			// A fresh simulator: per-user state must not leak between runs.
			sm, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []trace.Sample
			if err := sm.RunConcurrent(workers, func(s *trace.Sample) error {
				got = append(got, *s.Clone())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(seq) {
				t.Fatalf("%d, %d workers: %d samples, want %d", year, workers, len(got), len(seq))
			}
			for i := range seq {
				if !reflect.DeepEqual(got[i], seq[i]) {
					t.Fatalf("%d, %d workers: sample %d differs from Run:\n got %+v\nwant %+v",
						year, workers, i, got[i], seq[i])
				}
			}
		}
	}
}

func isShopESSID(essid string) bool {
	for _, prefix := range []string{"cafe_wifi_", "hotel-guest-", "shop-free-"} {
		if strings.HasPrefix(essid, prefix) {
			return true
		}
	}
	return false
}

func TestRunConcurrentSingleWorkerFallsBack(t *testing.T) {
	cfg := smallConfig(t, 2013)
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sm.RunConcurrent(1, func(*trace.Sample) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples")
	}
}

func TestRunConcurrentPropagatesSinkError(t *testing.T) {
	cfg := smallConfig(t, 2013)
	sm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errSentinel{}
	err = sm.RunConcurrent(4, func(*trace.Sample) error { return wantErr })
	if err == nil {
		t.Fatal("sink error swallowed")
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }
