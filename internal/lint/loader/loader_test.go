package loader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates a file under dir, making parents as needed.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadResolvesCrossPackageTypes proves the export-data path resolves a
// real module-internal import: the loaded client package must see
// *sim.Kernel methods through its imports.
func TestLoadResolvesCrossPackageTypes(t *testing.T) {
	pkgs, err := Load("repro/internal/stats")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	found := false
	for _, p := range pkgs {
		if p.Path == "repro/internal/stats" {
			found = true
			if p.Types.Scope().Lookup("Welford") == nil {
				t.Error("stats package is missing the Welford type")
			}
		}
	}
	if !found {
		t.Fatal("repro/internal/stats not among loaded packages")
	}
}

// TestLoadDirSkipsBuildConstrainedFiles: a file excluded by //go:build must
// not reach the typechecker, where its conflicting declaration would be a
// spurious type error.
func TestLoadDirSkipsBuildConstrainedFiles(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", "package a\n\nfunc F() int { return 1 }\n")
	write(t, dir, "a_ignored.go", "//go:build neverever\n\npackage a\n\nfunc F() int { return 2 }\n")
	pkg, err := LoadDir(dir, "a")
	if err != nil {
		t.Fatalf("LoadDir with build-constrained duplicate: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (constrained file filtered)", len(pkg.Files))
	}
}

// TestLoadDirSyntaxErrorIsDiagnosticNotPanic: malformed source must come
// back as an error naming the file.
func TestLoadDirSyntaxErrorIsDiagnosticNotPanic(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "bad.go", "package a\n\nfunc broken( {\n")
	_, err := LoadDir(dir, "a")
	if err == nil {
		t.Fatal("LoadDir accepted a syntax error")
	}
	if !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("error %q does not name the offending file", err)
	}
}

// TestLoadDirTypeErrorIsDiagnosticNotPanic: well-formed but ill-typed
// source must come back as an error, not a panic or a silent pass.
func TestLoadDirTypeErrorIsDiagnosticNotPanic(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "bad.go", "package a\n\nvar X int = \"not an int\"\n")
	_, err := LoadDir(dir, "a")
	if err == nil {
		t.Fatal("LoadDir accepted a type error")
	}
	if !strings.Contains(err.Error(), "typechecking") {
		t.Errorf("error %q is not a typechecking diagnostic", err)
	}
}

// TestLoadDirEmptyDirIsError: a directory with no buildable files is a
// diagnostic, not a panic.
func TestLoadDirEmptyDirIsError(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "skip.go", "//go:build neverever\n\npackage a\n")
	if _, err := LoadDir(dir, "a"); err == nil {
		t.Fatal("LoadDir accepted a package with zero buildable files")
	}
}

// TestLoadTreeResolvesSiblingFixtures: a fixture importing a sibling
// fixture package resolves within the tree; stdlib imports fall through.
func TestLoadTreeResolvesSiblingFixtures(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/sim/sim.go", `package sim

// Kernel is a stand-in.
type Kernel struct{ n int }

// Schedule is a stand-in.
func (k *Kernel) Schedule(d int, fn func()) { k.n++ }
`)
	write(t, root, "a/a.go", `package a

import (
	"strings"

	"internal/sim"
)

func Use(k *sim.Kernel) int {
	k.Schedule(1, func() {})
	return len(strings.TrimSpace(""))
}
`)
	pkg, err := LoadTree(root, "a")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	if pkg.Types.Scope().Lookup("Use") == nil {
		t.Fatal("fixture package a is missing Use")
	}
}

// TestLoadTreeCycleIsError: mutually importing fixture packages must fail
// with a cycle diagnostic, not recurse forever.
func TestLoadTreeCycleIsError(t *testing.T) {
	root := t.TempDir()
	write(t, root, "p/p.go", "package p\n\nimport _ \"q\"\n")
	write(t, root, "q/q.go", "package q\n\nimport _ \"p\"\n")
	_, err := LoadTree(root, "p")
	if err == nil {
		t.Fatal("LoadTree accepted an import cycle")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention the cycle", err)
	}
}

// TestLoadWithOverlayMutatesInMemory: an overlay replaces one file's
// content without touching disk, and the mutation is visible in the
// loaded package.
func TestLoadWithOverlayMutatesInMemory(t *testing.T) {
	pkgs, err := Load("repro/internal/stats")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var statsFile string
	for _, p := range pkgs {
		if p.Path != "repro/internal/stats" {
			continue
		}
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if filepath.Base(name) == "stats.go" {
				statsFile = name
			}
		}
	}
	if statsFile == "" {
		t.Fatal("stats.go not found in loaded package")
	}
	src, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte{}, src...)
	mutated = append(mutated, []byte("\n// OverlayMarker is injected by the overlay test.\nfunc OverlayMarker() {}\n")...)
	got, err := LoadWithOverlay(map[string][]byte{statsFile: mutated}, "repro/internal/stats")
	if err != nil {
		t.Fatalf("LoadWithOverlay: %v", err)
	}
	found := false
	for _, p := range got {
		if p.Path == "repro/internal/stats" && p.Types.Scope().Lookup("OverlayMarker") != nil {
			found = true
		}
	}
	if !found {
		t.Error("overlay mutation not visible in typechecked package")
	}
	onDisk, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(mutated), string(onDisk)) || len(onDisk) == len(mutated) {
		// The original file must be untouched (overlay is in-memory only).
		if string(onDisk) != string(src) {
			t.Error("LoadWithOverlay modified the file on disk")
		}
	}
}
