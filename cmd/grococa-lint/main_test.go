package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/loader"
	"repro/internal/lint/multichecker"
)

func TestListAnalyzers(t *testing.T) {
	var out bytes.Buffer
	code, err := run(&out, []string{"-list"})
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	for _, name := range []string{"errdrop", "mapiterorder", "rngstream", "wallclock"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks from source in -short mode")
	}
	var out bytes.Buffer
	code, err := run(&out, []string{"repro/internal/lint/analysis"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit %d on clean package; findings:\n%s", code, out.String())
	}
}

func TestBadFlagRejected(t *testing.T) {
	var out bytes.Buffer
	if code, _ := run(&out, []string{"-bogus"}); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

func TestBadPatternErrors(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(&out, []string{"./no/such/dir/..."}); err == nil || code != 2 {
		t.Errorf("bad pattern: exit %d, err %v; want 2 with error", code, err)
	}
}

// hotAppendDefect returns a //hot: method that appends to a fresh local
// slice, with trailing written after the append call on its line.
func hotAppendDefect(trailing string) string {
	return `//hot:injected allocation
func (g *Grid) lintDefectHotAlloc(n int) []GridID {
	var out []GridID
	for i := 0; i < n; i++ {
		out = append(out, GridID(i))` + trailing + `
	}
	return out
}
`
}

// TestInjectedDefectsCaught edits a real package in memory (a source
// overlay; the working tree is never touched) with a realistic regression
// for each contract analyzer, and requires that analyzer to flag it.
func TestInjectedDefectsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks from source in -short mode")
	}
	for _, m := range []struct {
		name     string
		analyzer *analysis.Analyzer
		pattern  string // go-list pattern of the package to mutate
		file     string // basename of the file the defect is appended to
		defect   string
	}{
		{
			name:     "hotalloc",
			analyzer: hotalloc.Analyzer,
			pattern:  "repro/internal/geo",
			file:     "grid.go",
			defect:   hotAppendDefect(""),
		},
		{
			// A //lint:ignore comment is an ordinary comment: it silences
			// nothing.
			name:     "hotalloc-ignore-comment",
			analyzer: hotalloc.Analyzer,
			pattern:  "repro/internal/geo",
			file:     "grid.go",
			defect:   hotAppendDefect(" //lint:ignore hotalloc scratch buffer owned by the caller"),
		},
	} {
		t.Run(m.name, func(t *testing.T) {
			pkgs, err := loader.Load(m.pattern)
			if err != nil {
				t.Fatal(err)
			}
			var target string
			for _, p := range pkgs {
				for _, f := range p.Files {
					if name := p.Fset.Position(f.Pos()).Filename; filepath.Base(name) == m.file {
						target = name
					}
				}
			}
			if target == "" {
				t.Fatalf("%s not found in %s", m.file, m.pattern)
			}
			src, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			mutated := append(append(append([]byte{}, src...), '\n'), m.defect...)
			mutPkgs, err := loader.LoadWithOverlay(map[string][]byte{target: mutated}, m.pattern)
			if err != nil {
				t.Fatal(err)
			}
			findings, err := multichecker.Analyze(mutPkgs, []*analysis.Analyzer{m.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			// Only a finding inside the appended lines proves the catch.
			orig := bytes.Count(src, []byte("\n"))
			for _, f := range findings {
				if f.Pos.Filename == target && f.Pos.Line > orig {
					return
				}
			}
			t.Fatalf("%s missed the injected defect (findings: %v):\n%s", m.analyzer.Name, findings, m.defect)
		})
	}
}
