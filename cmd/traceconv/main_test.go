package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smartusage/internal/trace"
)

// writeTrace writes n valid samples as a binary trace at path and returns
// its bytes.
func writeTrace(t *testing.T, path string, n int) []byte {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := 0; i < n; i++ {
		s := trace.Sample{Device: trace.DeviceID(i % 3), OS: trace.Android, Time: int64(i) * 600, Battery: 50}
		if err := w.Write(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestRefusesOutputThatIsInput runs traceconv with -out naming its -in as
// the same path, through "./", and through a hard link: each run is refused
// and the input keeps its bytes.
func TestRefusesOutputThatIsInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "t.trace")
	want := writeTrace(t, in, 2000)
	link := filepath.Join(dir, "link.trace")
	if err := os.Link(in, link); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{in, filepath.Join(dir, ".", "t.trace"), dir + "/./t.trace", link} {
		if err := run([]string{"-in", in, "-out", out}); err == nil {
			t.Errorf("-out %s: conversion onto the input succeeded", out)
		}
		got, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-out %s: input changed from %d to %d bytes", out, len(want), len(got))
		}
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Errorf("directory holds %v, want only the input and its link", names)
	}
}

// TestFailedConversionLeavesNoOutput converts a binary trace cut off inside
// a record and one cut off inside its header: each run fails, leaves no
// -out and no temporary file, and keeps an existing -out intact.
func TestFailedConversionLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	full := writeTrace(t, filepath.Join(dir, "full.trace"), 2000)
	for _, size := range []int{len(full) - 7, 3} {
		in := filepath.Join(dir, "cut.trace")
		if err := os.WriteFile(in, full[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.jsonl")
		if err := run([]string{"-in", in, "-out", out}); err == nil {
			t.Fatalf("%d-byte input: conversion succeeded", size)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%d-byte input: -out exists after a failed conversion (stat: %v)", size, err)
		}
		if names := dirNames(t, dir); len(names) != 2 {
			t.Errorf("%d-byte input: directory holds %v, want only the two inputs", size, names)
		}

		kept := []byte("an earlier conversion\n")
		if err := os.WriteFile(out, kept, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-in", in, "-out", out}); err == nil {
			t.Fatalf("%d-byte input: conversion succeeded", size)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, kept) {
			t.Errorf("%d-byte input: existing -out became %q (%v), want it intact", size, got, err)
		}
		if err := os.Remove(out); err != nil {
			t.Fatal(err)
		}
	}

	// The whole trace converts, and back again byte for byte.
	jsonl, back := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "back.trace")
	if err := run([]string{"-in", filepath.Join(dir, "full.trace"), "-out", jsonl}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", jsonl, "-out", back}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(back); err != nil || !bytes.Equal(got, full) {
		t.Errorf("binary → JSON Lines → binary changed the trace (%d → %d bytes, %v)", len(full), len(got), err)
	}
}
