package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: smartusage/internal/obs
cpu: some cpu
BenchmarkCounterHot-8      	1	5.25 ns/op	0 B/op	0 allocs/op
BenchmarkSnapshotPrometheus-8	1	2100 ns/op	912 B/op	14 allocs/op
PASS
ok  	smartusage/internal/obs	0.01s
pkg: smartusage/internal/trace
BenchmarkEncode-8          	1	80 ns/op
PASS
ok  	smartusage/internal/trace	0.01s
`

func TestParse(t *testing.T) {
	results, _, err := parse(bufio.NewScanner(strings.NewReader(sampleBenchOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	hot := results[0]
	if hot.Pkg != "smartusage/internal/obs" || hot.Name != "BenchmarkCounterHot" {
		t.Errorf("first result misattributed: %+v", hot)
	}
	if hot.NsPerOp != 5.25 || hot.BPerOp != 0 || hot.AllocsOp != 0 {
		t.Errorf("BenchmarkCounterHot metrics wrong: %+v", hot)
	}
	enc := results[2]
	if enc.Pkg != "smartusage/internal/trace" || enc.NsPerOp != 80 {
		t.Errorf("pkg header did not switch: %+v", enc)
	}
	if enc.BPerOp != -1 || enc.AllocsOp != -1 {
		t.Errorf("absent -benchmem metrics should stay -1: %+v", enc)
	}
}

// TestParseRejectsFailedRun: output in which a benchmark failed, a
// sub-benchmark failed or a package did not build must not parse, or the
// manifest written from it would silently lack keys.
func TestParseRejectsFailedRun(t *testing.T) {
	for name, out := range map[string]string{
		"failed benchmark": `pkg: smartusage
BenchmarkFig1-2   	1	2100 ns/op	912 B/op	14 allocs/op
--- FAIL: BenchmarkFig2
    bench_test.go:301: simulate: boom
FAIL
exit status 1
FAIL	smartusage	1.234s
`,
		"failed sub-benchmark": `pkg: smartusage
    --- FAIL: BenchmarkFig2/inner
`,
		"build failure": "FAIL\tsmartusage/internal/obs [build failed]\n" + sampleBenchOutput,
	} {
		if results, _, err := parse(bufio.NewScanner(strings.NewReader(out))); err == nil {
			t.Errorf("%s: parsed %d results and no error", name, len(results))
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	results, _, err := parse(bufio.NewScanner(strings.NewReader(sampleBenchOutput)))
	if err != nil {
		t.Fatal(err)
	}
	a := string(marshal(Machine{}, results))
	// Reversed input order must yield identical bytes.
	rev := make([]Result, len(results))
	for i, r := range results {
		rev[len(results)-1-i] = r
	}
	b := string(marshal(Machine{}, rev))
	if a != b {
		t.Errorf("marshal is input-order dependent:\n%s\nvs\n%s", a, b)
	}
	want := `{
  "smartusage/internal/obs.BenchmarkCounterHot": {"ns_per_op": 5.25, "bytes_per_op": 0, "allocs_per_op": 0},
  "smartusage/internal/obs.BenchmarkSnapshotPrometheus": {"ns_per_op": 2100, "bytes_per_op": 912, "allocs_per_op": 14},
  "smartusage/internal/trace.BenchmarkEncode": {"ns_per_op": 80}
}
`
	if a != want {
		t.Errorf("manifest drifted from golden.\ngot:\n%s\nwant:\n%s", a, want)
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":      "BenchmarkX",
		"BenchmarkX-128":    "BenchmarkX",
		"BenchmarkX":        "BenchmarkX",
		"BenchmarkX-noproc": "BenchmarkX-noproc",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
