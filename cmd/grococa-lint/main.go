// Command grococa-lint is the contract-analysis suite: a multichecker over
// the custom analyzers that enforce this repo's bit-identical
// reproducibility rules and cross-package runtime contracts (DESIGN.md
// "Static analysis").
//
//	grococa-lint ./...                  # what make tier1 runs
//	grococa-lint -json ./...            # machine-readable findings artifact
//	grococa-lint -max-suppress 0 ./...  # suppression budget gate
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
// A finding is suppressed only by an annotated line:
//
//	//lint:ignore <analyzer> <non-empty reason>
//
// Every suppression that fires is inventoried in the output (and in -json),
// and -max-suppress N fails the run when more than N directives fire — the
// CI budget gate that keeps suppressions from accumulating silently.
//
// The exit status is 1 when any unsuppressed finding remains or the
// suppression budget is exceeded, 2 when loading or analysis fails. The
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

// jsonSuppression is one fired //lint:ignore directive in the -json
// artifact: position, analyzer, mandatory reason, and how many diagnostics
// it silenced.
type jsonSuppression struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Count    int    `json:"count"`
}

// jsonReport is the complete machine-readable output of one run.
type jsonReport struct {
	Findings     []jsonFinding        `json:"findings"`
	Suppressions []jsonSuppression    `json:"suppressions"`
	ByAnalyzer   map[string]jsonTally `json:"by_analyzer"`
	Summary      jsonSummary          `json:"summary"`
}

// jsonTally counts one analyzer's findings and fired suppressions.
type jsonTally struct {
	Findings     int `json:"findings"`
	Suppressions int `json:"suppressions"`
}

// jsonSummary is the roll-up the CI budget gate reads.
type jsonSummary struct {
	Findings          int  `json:"findings"`
	Suppressions      int  `json:"suppressions"`
	SuppressionBudget int  `json:"suppression_budget"`
	BudgetExceeded    bool `json:"budget_exceeded"`
}

// run executes the suite and returns the process exit code: 0 clean,
// 1 when findings remain or the suppression budget is exceeded.
func run(w io.Writer, args []string) (int, error) {
	fs := flag.NewFlagSet("grococa-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings and suppressions as JSON")
	maxSuppress := fs.Int("max-suppress", -1, "fail when more than this many suppressions fire (-1 disables the gate)")
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

	findings, suppressions, err := analyze(patterns)
	if err != nil {
		return 2, err
	}
	overBudget := *maxSuppress >= 0 && len(suppressions) > *maxSuppress

	if *asJSON {
		report := jsonReport{
			Findings:     []jsonFinding{},
			Suppressions: []jsonSuppression{},
			ByAnalyzer:   make(map[string]jsonTally),
			Summary: jsonSummary{
				Findings:          len(findings),
				Suppressions:      len(suppressions),
				SuppressionBudget: *maxSuppress,
				BudgetExceeded:    overBudget,
			},
		}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
			t := report.ByAnalyzer[f.Analyzer]
			t.Findings++
			report.ByAnalyzer[f.Analyzer] = t
		}
		for _, s := range suppressions {
			report.Suppressions = append(report.Suppressions, jsonSuppression{
				File: s.Pos.Filename, Line: s.Pos.Line,
				Analyzer: s.Analyzer, Reason: s.Reason, Count: s.Count,
			})
			t := report.ByAnalyzer[s.Analyzer]
			t.Suppressions++
			report.ByAnalyzer[s.Analyzer] = t
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
		if len(suppressions) > 0 {
			if _, err := fmt.Fprintf(w, "suppression budget report (%d fired):\n", len(suppressions)); err != nil {
				return 2, err
			}
			for _, s := range suppressions {
				if _, err := fmt.Fprintf(w, "  %s\n", s); err != nil {
					return 2, err
				}
			}
		}
		if len(findings) > 0 {
			if _, err := fmt.Fprintf(w, "%d lint finding(s)\n", len(findings)); err != nil {
				return 2, err
			}
		}
		if overBudget {
			if _, err := fmt.Fprintf(w, "suppression budget exceeded: %d fired > %d allowed\n", len(suppressions), *maxSuppress); err != nil {
				return 2, err
			}
		}
	}
	if len(findings) > 0 || overBudget {
		return 1, nil
	}
	return 0, nil
}

// analyze loads the patterns and runs the full suite, returning findings
// and fired suppressions in deterministic order.
func analyze(patterns []string) ([]multichecker.Finding, []multichecker.Suppression, error) {
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	return multichecker.AnalyzeAll(pkgs, analyzers)
}
