// Command grococa-lint is the contract-analysis suite: a multichecker over
// the custom analyzers that enforce this repo's bit-identical
// reproducibility rules and cross-package runtime contracts (DESIGN.md
// "Static analysis").
//
//	grococa-lint ./...        # what make tier1 runs
//	grococa-lint -json ./...  # machine-readable findings artifact
//
// Determinism analyzers (PR 2):
//
//	mapiterorder  no order-sensitive work inside range-over-map
//	rngstream     math/rand only inside internal/sim's named-stream RNG
//	wallclock     no wall-clock reads in simulation packages
//	errdrop       no silently discarded error returns
//
// Contract analyzer (type-aware):
//
//	hotalloc      allocation patterns in //hot:-annotated functions
//
// Every diagnostic is a finding; no comment silences one. The exit status
// is 1 when any finding remains, 2 when loading or analysis fails. The
// tests inject an in-memory defect for the contract analyzer and require
// it to be caught.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint/analysis"
	"repro/internal/lint/errdrop"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/loader"
	"repro/internal/lint/mapiterorder"
	"repro/internal/lint/multichecker"
	"repro/internal/lint/rngstream"
	"repro/internal/lint/wallclock"
)

// analyzers is the suite, in reporting-name order.
var analyzers = []*analysis.Analyzer{
	errdrop.Analyzer,
	hotalloc.Analyzer,
	mapiterorder.Analyzer,
	rngstream.Analyzer,
	wallclock.Analyzer,
}

func main() {
	code, err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "grococa-lint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// jsonFinding is one finding in the -json artifact.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the complete machine-readable output of one run: every
// finding, and the number of findings per analyzer.
type jsonReport struct {
	Findings   []jsonFinding  `json:"findings"`
	ByAnalyzer map[string]int `json:"by_analyzer"`
}

// run executes the suite and returns the process exit code: 0 clean,
// 1 when findings remain.
func run(w io.Writer, args []string) (int, error) {
	fs := flag.NewFlagSet("grococa-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		for _, a := range analyzers {
			if _, err := fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc); err != nil {
				return 2, err
			}
		}
		return 0, nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return 2, err
	}
	findings, err := multichecker.Analyze(pkgs, analyzers)
	if err != nil {
		return 2, err
	}

	if *asJSON {
		report := jsonReport{Findings: []jsonFinding{}, ByAnalyzer: make(map[string]int)}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
			report.ByAnalyzer[f.Analyzer]++
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			if _, err := fmt.Fprintln(w, f); err != nil {
				return 2, err
			}
		}
		if len(findings) > 0 {
			if _, err := fmt.Fprintf(w, "%d lint finding(s)\n", len(findings)); err != nil {
				return 2, err
			}
		}
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}
