package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceOutSurvivesFailedRun: a run that fails after the study, here
// because -o names a missing directory, still completes its -trace-out
// file as one JSON array holding the study's spans.
func TestTraceOutSurvivesFailedRun(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "t.json")
	err := run([]string{
		"-scale", "0.02",
		"-o", filepath.Join(dir, "missing", "x.md"),
		"-trace-out", traceOut,
	})
	if err == nil {
		t.Fatal("report into a missing directory succeeded")
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file (%d bytes) is not one JSON array: %v", len(data), err)
	}
	for _, e := range events {
		if e.Name == "core:campaign" {
			return
		}
	}
	t.Fatalf("no core:campaign span among %d trace events", len(events))
}
