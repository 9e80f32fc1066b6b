// Command smuvet is the repo's domain-specific multichecker: it loads the
// packages named by its arguments (default ./...) and runs the seven
// invariant analyzers — aliasret, closeerr, commitpair, determinism,
// guardedby, lockorder, shardmerge — over them, printing vet-style
// file:line:col diagnostics.
//
// Usage:
//
//	smuvet [-sarif] [-list] [packages...]
//
// -sarif emits a SARIF 2.1.0 log for code-scanning upload; its results are
// sorted, so identical trees produce identical bytes (CI diffs two runs).
// Exit status is 0 when the tree is clean, 1 when any diagnostic is
// reported, and 2 when loading or type-checking fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"smartusage/internal/smuvet"
)

func main() {
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: smuvet [-sarif] [-list] [packages...]\n\nAnalyzers:\n")
		for _, a := range smuvet.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range smuvet.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns, *sarifOut))
}

// flatDiag is one diagnostic with its position resolved, for SARIF output.
type flatDiag struct {
	analyzer string
	file     string
	line     int
	col      int
	message  string
}

func run(patterns []string, sarif bool) int {
	pkgs, err := smuvet.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	analyzers := smuvet.All()
	status := 0
	var flat []flatDiag
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				fmt.Fprintf(os.Stderr, "%s: %v\n", pkg.PkgPath, e)
			}
			status = 2
			continue
		}
		diags, err := smuvet.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, d := range diags {
			if status == 0 {
				status = 1
			}
			posn := pkg.Fset.Position(d.Pos)
			if !sarif {
				fmt.Printf("%s: %s: %s\n", posn, d.Analyzer, d.Message)
				continue
			}
			flat = append(flat, flatDiag{
				analyzer: d.Analyzer,
				file:     relPath(posn.Filename),
				line:     posn.Line,
				col:      posn.Column,
				message:  d.Message,
			})
		}
	}
	if sarif {
		if err := writeSARIF(os.Stdout, flat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	return status
}

// relPath makes file relative to the working directory so SARIF artifact
// URIs resolve against the repository root wherever the log is consumed.
func relPath(file string) string {
	wd, err := os.Getwd()
	if err != nil {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(wd, file)
	if err != nil {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}

// SARIF 2.1.0 output, the subset code-scanning consumers need. Structs
// rather than nested maps so the field set is visible and stable.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func writeSARIF(w *os.File, diags []flatDiag) error {
	rules := make([]sarifRule, 0, len(smuvet.All())+2)
	for _, a := range smuvet.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	// The two pseudo-analyzers diagnose the suppression grammar itself.
	rules = append(rules,
		sarifRule{ID: "allow", ShortDescription: sarifText{Text: "malformed //smuvet:allow comment"}},
		sarifRule{ID: "stale", ShortDescription: sarifText{Text: "//smuvet:allow comment that suppressed no diagnostic in this run"}},
	)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.file, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: d.line, StartColumn: d.col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "smuvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(log)
}
