package multichecker_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/multichecker"
	"repro/internal/lint/wallclock"
)

func TestFindingsAreSorted(t *testing.T) {
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "b"), "b")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := multichecker.Analyze([]*loader.Package{pkg}, []*analysis.Analyzer{wallclock.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Fatalf("want 4 wallclock findings, got %d: %v", len(findings), findings)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Filename == b.Pos.Filename && (a.Pos.Line > b.Pos.Line || a.Pos.Line == b.Pos.Line && a.Pos.Column > b.Pos.Column) {
			t.Fatalf("findings out of order: %v before %v", a, b)
		}
	}
}
