package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Diff mode compares a fresh benchmark run (stdin) against a committed
// manifest, benchstat-style, and fails on regressions beyond per-metric
// tolerances. The tolerances are deliberately asymmetric with the metrics'
// noise profiles: wall-clock at -benchtime=1x jitters wildly on shared CI
// runners, so ns/op gets a loose relative gate and an absolute floor below
// which it is not judged at all; bytes/op and allocs/op are nearly
// deterministic, so they gate tightly and catch allocation regressions the
// timing gate would drown in noise.

// Tolerances configures the regression gate.
type Tolerances struct {
	// NsFrac is the allowed fractional ns/op growth (0.5 = +50%).
	NsFrac float64
	// NsFloor exempts benchmarks whose baseline ns/op is below it; timing
	// of sub-floor benchmarks is pure noise at -benchtime=1x.
	NsFloor float64
	// BytesFrac / AllocsFrac are the allowed fractional growths, each with
	// a small absolute slack so one-time pool or map warmup jitter on tiny
	// benchmarks does not trip the gate.
	BytesFrac   float64
	AllocsFrac  float64
	bytesSlack  int64
	allocsSlack int64
}

// DefaultTolerances matches the CI gate.
func DefaultTolerances() Tolerances {
	return Tolerances{
		NsFrac:      0.50,
		NsFloor:     1e6, // 1 ms
		BytesFrac:   0.10,
		AllocsFrac:  0.10,
		bytesSlack:  512,
		allocsSlack: 8,
	}
}

// manifestEntry mirrors one marshal() value; pointers distinguish absent
// metrics from zero.
type manifestEntry struct {
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   *int64  `json:"bytes_per_op"`
	AllocsOp *int64  `json:"allocs_per_op"`
}

// loadManifest reads a committed benchmark manifest and the machine it
// records, zero for a manifest written before manifests recorded one.
func loadManifest(path string) (map[string]Result, Machine, error) {
	var m Machine
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, m, err
	}
	var entries map[string]json.RawMessage
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, m, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Result, len(entries))
	for key, v := range entries {
		if key == machineKey {
			if err := json.Unmarshal(v, &m); err != nil {
				return nil, m, fmt.Errorf("%s: %s: %w", path, key, err)
			}
			continue
		}
		var e manifestEntry
		if err := json.Unmarshal(v, &e); err != nil {
			return nil, m, fmt.Errorf("%s: %s: %w", path, key, err)
		}
		r := Result{NsPerOp: e.NsPerOp, BPerOp: -1, AllocsOp: -1}
		if e.BPerOp != nil {
			r.BPerOp = *e.BPerOp
		}
		if e.AllocsOp != nil {
			r.AllocsOp = *e.AllocsOp
		}
		out[key] = r
	}
	return out, m, nil
}

// machineNote describes the anchor's machine and this run's, and says when
// they differ: ns/op moves with the machine, so a diff across machines is
// read with that in mind. It never gates.
func machineNote(anchor, run Machine) string {
	describe := func(m Machine) string {
		if m == (Machine{}) {
			return "not recorded"
		}
		return fmt.Sprintf("%s/%s, %q, GOMAXPROCS %d of %d CPUs, %s",
			m.GOOS, m.GOARCH, m.CPU, m.GOMAXPROCS, m.NumCPU, m.Go)
	}
	note := fmt.Sprintf("anchor machine: %s\nthis machine:   %s\n", describe(anchor), describe(run))
	if anchor != run {
		note += "machines differ: compare ns/op with care\n"
	}
	return note
}

// regression is one metric exceeding its tolerance.
type regression struct {
	key, metric string
	old, new    float64
}

// diff compares new results against the old manifest. It returns a rendered
// report and the regressions found. New benchmarks (no baseline) and
// benchmarks that vanished from the run are reported but never fail: the
// former have nothing to regress from, and failing the latter would turn
// every benchmark rename into a red build instead of a stale-anchor review
// comment.
func diff(old map[string]Result, results []Result, tol Tolerances) (string, []regression) {
	var (
		b       strings.Builder
		regs    []regression
		fresh   []string
		changed int
	)
	seen := make(map[string]bool, len(results))
	fmt.Fprintf(&b, "%-52s %14s %14s %8s\n", "benchmark", "old", "new", "delta")
	row := func(key, metric string, oldV, newV float64, flag string) {
		delta := "n/a"
		if oldV > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
		}
		fmt.Fprintf(&b, "%-52s %14.6g %14.6g %8s %s\n",
			key+" ["+metric+"]", oldV, newV, delta, flag)
	}
	keys := make([]string, 0, len(results))
	byKey := make(map[string]Result, len(results))
	for _, r := range results {
		key := r.Pkg + "." + r.Name
		keys = append(keys, key)
		byKey[key] = r
		seen[key] = true
	}
	sort.Strings(keys)
	for _, key := range keys {
		r := byKey[key]
		base, ok := old[key]
		if !ok {
			fresh = append(fresh, key)
			continue
		}
		type metric struct {
			name      string
			oldV, new float64
			frac      float64
			slack     float64
			floor     float64
		}
		metrics := []metric{
			{"ns/op", base.NsPerOp, r.NsPerOp, tol.NsFrac, 0, tol.NsFloor},
		}
		if base.BPerOp >= 0 && r.BPerOp >= 0 {
			metrics = append(metrics, metric{"B/op", float64(base.BPerOp), float64(r.BPerOp), tol.BytesFrac, float64(tol.bytesSlack), 0})
		}
		if base.AllocsOp >= 0 && r.AllocsOp >= 0 {
			metrics = append(metrics, metric{"allocs/op", float64(base.AllocsOp), float64(r.AllocsOp), tol.AllocsFrac, float64(tol.allocsSlack), 0})
		}
		for _, m := range metrics {
			if m.floor > 0 && m.oldV < m.floor && m.new < m.floor {
				continue
			}
			limit := m.oldV*(1+m.frac) + m.slack
			switch {
			case m.new > limit:
				regs = append(regs, regression{key: key, metric: m.name, old: m.oldV, new: m.new})
				row(key, m.name, m.oldV, m.new, "REGRESSION")
				changed++
			case m.oldV > 0 && m.new < m.oldV*(1-m.frac):
				row(key, m.name, m.oldV, m.new, "improved")
				changed++
			}
		}
	}
	if changed == 0 {
		fmt.Fprintf(&b, "%-52s no metric moved beyond tolerance\n", "(all benchmarks)")
	}
	for _, key := range fresh {
		fmt.Fprintf(&b, "%-52s (new benchmark, no baseline)\n", key)
	}
	var gone []string
	for key := range old {
		if !seen[key] {
			gone = append(gone, key)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		fmt.Fprintf(&b, "%-52s (in baseline, absent from run — stale anchor?)\n", key)
	}
	fmt.Fprintf(&b, "compared %d benchmarks: %d regressions, %d new, %d missing\n",
		len(keys)-len(fresh), len(regs), len(fresh), len(gone))
	return b.String(), regs
}
