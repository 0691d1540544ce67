// Package multichecker drives a set of analyzers over loaded packages,
// applies //lint:ignore suppressions, and renders the surviving findings.
// cmd/grococa-lint is its command-line front end.
//
// Suppression discipline: a `//lint:ignore <analyzer> <reason>` comment on
// the offending line (or the line directly above) silences exactly the
// named analyzer there. The reason is mandatory; a bare directive is
// itself a finding. So is a directive that suppresses nothing — stale
// annotations must be deleted, not accumulated.
package multichecker

import (
	"fmt"
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Finding is one unsuppressed diagnostic, positioned and attributed.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Suppression is one //lint:ignore directive that suppressed at least one
// diagnostic — the unit the suppression budget counts and the -json report
// lists, so every silenced finding stays reviewable.
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	// Count is the number of diagnostics the directive silenced.
	Count int
}

// String renders the suppression for the budget report.
func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: [%s] suppressed %d finding(s): %s", s.Pos.Filename, s.Pos.Line, s.Analyzer, s.Count, s.Reason)
}

// directiveState tracks one parsed directive and whether it earned its
// keep by suppressing at least one diagnostic.
type directiveState struct {
	analysis.Directive
	file  string
	used  bool
	count int
}

// Analyze runs every analyzer over every package and returns the findings
// that survive suppression, sorted by position. It discards the
// suppression inventory; drivers that report or budget suppressions use
// AnalyzeAll.
func Analyze(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	findings, _, err := AnalyzeAll(pkgs, analyzers)
	return findings, err
}

// AnalyzeAll is Analyze plus the inventory of suppressions that fired,
// sorted by position.
func AnalyzeAll(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, []Suppression, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	var suppressions []Suppression
	for _, pkg := range pkgs {
		// Collect this package's directives, keyed by file.
		byFile := make(map[string][]*directiveState)
		var all []*directiveState
		for _, f := range pkg.Files {
			dirs, errs := analysis.ParseDirectives(pkg.Fset, f)
			for _, d := range errs {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: "ignore",
					Message:  d.Message,
				})
			}
			for _, d := range dirs {
				st := &directiveState{Directive: d, file: pkg.Fset.Position(d.Pos).Filename}
				byFile[st.file] = append(byFile[st.file], st)
				all = append(all, st)
			}
		}

		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				suppressed := false
				for _, st := range byFile[pos.Filename] {
					if st.Suppresses(a.Name, pos.Line) {
						st.used = true
						st.count++
						suppressed = true
					}
				}
				if !suppressed {
					findings = append(findings, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message})
				}
			}
		}

		// Directives must name a real analyzer and actually suppress
		// something; anything else is dead weight that would rot.
		for _, st := range all {
			pos := pkg.Fset.Position(st.Directive.Pos)
			switch {
			case !known[st.Analyzer]:
				findings = append(findings, Finding{Pos: pos, Analyzer: "ignore",
					Message: fmt.Sprintf("lint:ignore names unknown analyzer %q", st.Analyzer)})
			case !st.used:
				findings = append(findings, Finding{Pos: pos, Analyzer: "ignore",
					Message: fmt.Sprintf("unused lint:ignore %s directive: nothing to suppress here; delete it", st.Analyzer)})
			default:
				suppressions = append(suppressions, Suppression{
					Pos:      pos,
					Analyzer: st.Analyzer,
					Reason:   st.Reason,
					Count:    st.count,
				})
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
	sort.Slice(suppressions, func(i, j int) bool {
		a, b := suppressions[i], suppressions[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, suppressions, nil
}
