package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements. A value of -1 means the metric was
// absent from the line (B/op and allocs/op only appear under -benchmem).
type Result struct {
	Pkg      string  // import path, from the preceding "pkg:" header
	Name     string  // benchmark name, GOMAXPROCS suffix stripped
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
}

// Machine records where a run came from: the goos, goarch and cpu header
// lines of the benchmark output, GOMAXPROCS from the benchmark names' -N
// suffix (absent at 1), and the CPU count and Go version benchjson itself
// sees, running on the same machine.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
}

// machineKey is the manifest key that holds the Machine; it cannot clash
// with a "<package>.<Benchmark>" key.
const machineKey = "_machine"

// parse reads `go test -bench` output and returns one Result per benchmark
// line, tagged with the package from the most recent "pkg:" header, and the
// machine its header lines and benchmark names describe. A "--- FAIL" or
// "FAIL" line (a failed or panicking benchmark, a package that did not
// build) is an error: the run's manifest would lack keys without saying so.
func parse(sc *bufio.Scanner) ([]Result, Machine, error) {
	var (
		results []Result
		pkg     string
		m       Machine
	)
	for sc.Scan() {
		line := sc.Text()
		if failed(line) {
			return nil, m, fmt.Errorf("the benchmark run failed: %s", strings.TrimSpace(line))
		}
		if key, val, ok := strings.Cut(line, ": "); ok {
			val = strings.TrimSpace(val)
			switch key {
			case "pkg":
				pkg = val
			case "goos":
				m.GOOS = val
			case "goarch":
				m.GOARCH = val
			case "cpu":
				m.CPU = val
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name-N iterations value unit [value unit ...]
		if len(fields) < 4 {
			continue
		}
		r := Result{Pkg: pkg, Name: trimProcs(fields[0]), BPerOp: -1, AllocsOp: -1}
		m.GOMAXPROCS = 1
		if suffix := fields[0][len(r.Name):]; suffix != "" {
			m.GOMAXPROCS, _ = strconv.Atoi(suffix[1:]) // trimProcs checked it
		}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, m, err
				}
				r.NsPerOp = f
				seen = true
			case "B/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, m, err
				}
				r.BPerOp = n
			case "allocs/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, m, err
				}
				r.AllocsOp = n
			}
		}
		if seen {
			results = append(results, r)
		}
	}
	return results, m, sc.Err()
}

// failed reports whether line marks a failure in go test's output: "---
// FAIL:" before a failed benchmark (indented for a sub-benchmark), and
// "FAIL" alone or before a package that failed or did not build.
func failed(line string) bool {
	f := strings.Fields(line)
	return len(f) > 0 && f[0] == "FAIL" || len(f) > 1 && f[0] == "---" && f[1] == "FAIL:"
}

// trimProcs strips the -GOMAXPROCS suffix (BenchmarkX-8 → BenchmarkX) so
// keys stay stable across machines with different core counts.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// marshal renders the manifest deterministically: the machine first, under
// machineKey unless m is zero, then the benchmarks with keys sorted, one per
// line, trailing newline. Hand-rolled for the same reason as
// obs.Snapshot.MarshalJSON — byte-stable output diffs cleanly between runs.
func marshal(m Machine, results []Result) []byte {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Pkg != results[j].Pkg {
			return results[i].Pkg < results[j].Pkg
		}
		return results[i].Name < results[j].Name
	})
	var b []byte
	b = append(b, "{\n"...)
	if m != (Machine{}) {
		mj, _ := json.Marshal(m) // strings and ints: cannot fail
		b = append(b, "  "...)
		b = strconv.AppendQuote(b, machineKey)
		b = append(b, ": "...)
		b = append(b, mj...)
		if len(results) > 0 {
			b = append(b, ",\n"...)
		}
	}
	for i, r := range results {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, "  "...)
		b = strconv.AppendQuote(b, r.Pkg+"."+r.Name)
		b = append(b, `: {"ns_per_op": `...)
		b = strconv.AppendFloat(b, r.NsPerOp, 'g', -1, 64)
		if r.BPerOp >= 0 {
			b = append(b, `, "bytes_per_op": `...)
			b = strconv.AppendInt(b, r.BPerOp, 10)
		}
		if r.AllocsOp >= 0 {
			b = append(b, `, "allocs_per_op": `...)
			b = strconv.AppendInt(b, r.AllocsOp, 10)
		}
		b = append(b, '}')
	}
	b = append(b, "\n}\n"...)
	return b
}
