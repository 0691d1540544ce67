// Package multichecker drives a set of analyzers over loaded packages and
// collects their diagnostics as findings. Every diagnostic is a finding:
// there is no suppression comment, so a false positive is fixed in the
// analyzer. cmd/grococa-lint is its command-line front end.
package multichecker

import (
	"fmt"
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Finding is one diagnostic, positioned and attributed.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyze runs every analyzer over every package and returns every
// diagnostic, sorted by position.
func Analyze(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, Finding{Pos: pkg.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
