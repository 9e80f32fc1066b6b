package faultnet_test

// The soaks upload samples of a simulated campaign, so access points, app
// records and byte counters ride through every fault, crash and failover,
// and each soak compares every sample that reaches a sink, a spool or a
// merge with the one its agent recorded.

import (
	"bytes"
	"sync"
	"testing"

	"smartusage/internal/config"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

// panel is the 2015 campaign at scale 0.005 (7 devices), simulated once per
// test binary: one slice of samples per device, in time order.
var panel struct {
	once sync.Once
	devs [][]trace.Sample
	err  error
}

// panelSamples returns what an agent for dev records in a soak: its OS and n
// samples, a window of one simulated device's that dev picks, as that agent
// records them (see recorded).
func panelSamples(t testing.TB, dev trace.DeviceID, n int) (trace.OS, []trace.Sample) {
	t.Helper()
	panel.once.Do(func() {
		cfg, err := config.ForYear(2015, 0.005, 1)
		if err != nil {
			panel.err = err
			return
		}
		sm, err := sim.New(cfg)
		if err != nil {
			panel.err = err
			return
		}
		index := make(map[trace.DeviceID]int)
		panel.err = sm.Run(func(s *trace.Sample) error {
			i, ok := index[s.Device]
			if !ok {
				i = len(panel.devs)
				index[s.Device] = i
				panel.devs = append(panel.devs, nil)
			}
			panel.devs[i] = append(panel.devs[i], *s.Clone())
			return nil
		})
	})
	if panel.err != nil {
		t.Fatalf("simulate the soak panel: %v", panel.err)
	}
	k := uint64(dev)
	src := panel.devs[k%uint64(len(panel.devs))]
	start := int(k / uint64(len(panel.devs)) * uint64(n) % uint64(len(src)-n))
	out := make([]trace.Sample, n)
	for i := range out {
		out[i] = recorded(&src[start+i], dev)
	}
	return src[0].OS, out
}

// recorded is s as an agent for dev, running s's OS, records it:
// agent.Record's copy under the agent's device, after its OS filter (iOS
// keeps no app records and only the associated AP).
func recorded(s *trace.Sample, dev trace.DeviceID) trace.Sample {
	cp := *s.Clone()
	cp.Device = dev
	if cp.OS == trace.IOS {
		cp.Apps = nil
		var kept []trace.APObs
		for _, ap := range cp.APs {
			if ap.Associated {
				kept = append(kept, ap)
			}
		}
		cp.APs = kept
	}
	return cp
}

// checkSamples fails the test unless got, what reached a sink, spool or
// merge for dev, is exactly want, the samples dev's agent recorded: no loss,
// no duplicate, no reorder, and every field intact.
func checkSamples(t *testing.T, where string, dev trace.DeviceID, got, want []trace.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("device %s: %s holds %d samples, want %d", dev, where, len(got), len(want))
	}
	for j := range got {
		if got[j].Time != want[j].Time {
			t.Fatalf("device %s: %s position %d holds time %d, want %d (duplicate or reorder)", dev, where, j, got[j].Time, want[j].Time)
		}
		if !bytes.Equal(trace.AppendSample(nil, &got[j]), trace.AppendSample(nil, &want[j])) {
			t.Fatalf("device %s: %s position %d differs from the sample its agent recorded:\n got %+v\nwant %+v", dev, where, j, got[j], want[j])
		}
	}
}
