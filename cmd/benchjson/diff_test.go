package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkResults is a sparse Result builder for diff tests.
func mkResults(rs ...Result) []Result { return rs }

func res(pkg, name string, ns float64, b, allocs int64) Result {
	return Result{Pkg: pkg, Name: name, NsPerOp: ns, BPerOp: b, AllocsOp: allocs}
}

func TestDiffRoundTripThroughManifest(t *testing.T) {
	results := mkResults(
		res("p", "BenchmarkA", 2e6, 1000, 50),
		res("p", "BenchmarkB", 80, -1, -1),
	)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, marshal(Machine{}, results), 0o644); err != nil {
		t.Fatal(err)
	}
	old, _, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := old["p.BenchmarkA"]; got.NsPerOp != 2e6 || got.BPerOp != 1000 || got.AllocsOp != 50 {
		t.Fatalf("manifest round trip mangled A: %+v", got)
	}
	if got := old["p.BenchmarkB"]; got.BPerOp != -1 || got.AllocsOp != -1 {
		t.Fatalf("absent metrics must load as -1: %+v", got)
	}
	report, regs := diff(old, results)
	if len(regs) != 0 {
		t.Fatalf("identical run regressed: %v\n%s", regs, report)
	}
}

func TestDiffCatchesRegressions(t *testing.T) {
	old := map[string]Result{
		"p.BenchmarkSlow":  {NsPerOp: 10e6, BPerOp: 100_000, AllocsOp: 1000},
		"p.BenchmarkMicro": {NsPerOp: 50, BPerOp: 64, AllocsOp: 2},
	}

	// ns/op regression beyond +50% on a benchmark above the floor.
	_, regs := diff(old, mkResults(res("p", "BenchmarkSlow", 16e6, 100_000, 1000)))
	if len(regs) != 1 || regs[0].metric != "ns/op" {
		t.Fatalf("ns regression not caught: %v", regs)
	}

	// The same relative slowdown below the floor is noise, not a failure.
	_, regs = diff(old, mkResults(res("p", "BenchmarkMicro", 80, 64, 2)))
	if len(regs) != 0 {
		t.Fatalf("sub-floor ns jitter failed the gate: %v", regs)
	}

	// Alloc growth beyond tolerance+slack fails even with flat timing.
	_, regs = diff(old, mkResults(res("p", "BenchmarkSlow", 10e6, 100_000, 1200)))
	if len(regs) != 1 || regs[0].metric != "allocs/op" {
		t.Fatalf("alloc regression not caught: %v", regs)
	}

	// Byte growth beyond tolerance fails.
	_, regs = diff(old, mkResults(res("p", "BenchmarkSlow", 10e6, 120_000, 1000)))
	if len(regs) != 1 || regs[0].metric != "B/op" {
		t.Fatalf("bytes regression not caught: %v", regs)
	}

	// Small absolute alloc jitter on tiny benchmarks passes (slack).
	_, regs = diff(old, mkResults(res("p", "BenchmarkMicro", 50, 64, 4)))
	if len(regs) != 0 {
		t.Fatalf("slack did not absorb tiny alloc jitter: %v", regs)
	}
}

func TestDiffImprovementsAndNewBenchmarksPass(t *testing.T) {
	old := map[string]Result{
		"p.BenchmarkSlow": {NsPerOp: 10e6, BPerOp: 100_000, AllocsOp: 1000},
	}
	report, regs := diff(old, mkResults(
		res("p", "BenchmarkSlow", 4e6, 40_000, 300), // big improvement
		res("p", "BenchmarkFresh", 5e6, 10, 1),      // no baseline
	))
	if len(regs) != 0 {
		t.Fatalf("improvement or new benchmark failed the gate: %v\n%s", regs, report)
	}
	if !strings.Contains(report, "improved") {
		t.Errorf("report does not flag the improvement:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkFresh") || !strings.Contains(report, "no baseline") {
		t.Errorf("report does not list the new benchmark:\n%s", report)
	}
}

func TestDiffReportsMissingWithoutFailing(t *testing.T) {
	old := map[string]Result{
		"p.BenchmarkGone": {NsPerOp: 1e6, BPerOp: 10, AllocsOp: 1},
		"p.BenchmarkKept": {NsPerOp: 1e6, BPerOp: 10, AllocsOp: 1},
	}
	report, regs := diff(old, mkResults(res("p", "BenchmarkKept", 1e6, 10, 1)))
	if len(regs) != 0 {
		t.Fatalf("missing benchmark failed the gate: %v", regs)
	}
	if !strings.Contains(report, "BenchmarkGone") || !strings.Contains(report, "stale anchor") {
		t.Errorf("report does not flag the vanished benchmark:\n%s", report)
	}
}

// TestDiffAgainstParsedBenchOutput exercises the full stdin → parse → diff
// path the CI gate runs.
func TestDiffAgainstParsedBenchOutput(t *testing.T) {
	results, _, err := parse(bufio.NewScanner(strings.NewReader(sampleBenchOutput)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "anchor.json")
	if err := os.WriteFile(path, marshal(Machine{}, results), 0o644); err != nil {
		t.Fatal(err)
	}
	old, _, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, regs := diff(old, results); len(regs) != 0 {
		t.Fatalf("self-diff regressed: %v", regs)
	}
}

// TestMachineRoundTrip reads the machine from benchmark output, writes it
// under the reserved key and loads it back, without the key ever reaching
// the benchmarks; -diff's note says when the anchor's machine differs.
func TestMachineRoundTrip(t *testing.T) {
	results, m, err := parse(bufio.NewScanner(strings.NewReader(sampleBenchOutput)))
	if err != nil {
		t.Fatal(err)
	}
	m.NumCPU, m.Go = 8, "go1.24.0"
	want := Machine{GOOS: "linux", GOARCH: "amd64", CPU: "some cpu", GOMAXPROCS: 8, NumCPU: 8, Go: "go1.24.0"}
	if m != want {
		t.Fatalf("parsed machine %+v, want %+v", m, want)
	}
	path := filepath.Join(t.TempDir(), "anchor.json")
	if err := os.WriteFile(path, marshal(m, results), 0o644); err != nil {
		t.Fatal(err)
	}
	old, anchor, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if anchor != m {
		t.Errorf("machine round trip: got %+v, want %+v", anchor, m)
	}
	if _, ok := old[machineKey]; ok || len(old) != len(results) {
		t.Errorf("loaded %d benchmarks (machine key among them: %v), want %d", len(old), ok, len(results))
	}
	if report, regs := diff(old, results); len(regs) != 0 || strings.Contains(report, machineKey) {
		t.Errorf("self-diff with a machine: %v\n%s", regs, report)
	}

	if note := machineNote(anchor, m); strings.Contains(note, "differ") || !strings.Contains(note, "GOMAXPROCS 8 of 8 CPUs") {
		t.Errorf("same machine noted as:\n%s", note)
	}
	other := m
	other.GOMAXPROCS, other.NumCPU = 2, 2
	note := machineNote(anchor, other)
	if !strings.Contains(note, "machines differ") || !strings.Contains(note, "GOMAXPROCS 2 of 2 CPUs") {
		t.Errorf("different machine noted as:\n%s", note)
	}
	if note := machineNote(Machine{}, m); !strings.Contains(note, "not recorded") || !strings.Contains(note, "machines differ") {
		t.Errorf("anchor without a machine noted as:\n%s", note)
	}
}
