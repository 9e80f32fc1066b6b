//go:build !linux

package main

// Outside Linux the benchmark runs but does not read the scratch
// filesystem, process CPU time or peak RSS, nor flush the disks before a
// timed part.

func fsType(string) string { return "unknown" }

func cpuSeconds() float64 { return 0 }

func peakRSS() int64 { return 0 }

func syncDisks() {}
