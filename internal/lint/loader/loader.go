// Package loader typechecks Go packages for the lint suite without any
// dependency outside the standard library.
//
// Package discovery shells out to `go list -json`. Cross-package type
// resolution is two-tier:
//
//   - The fast path asks `go list -export -deps -test` for compiler export
//     data (.a archives in the build cache) and resolves every import
//     through importer.ForCompiler(..., "gc", lookup). Export data is the
//     compiler's own view of a dependency — complete, already typechecked,
//     and loaded in microseconds — so an analyzer pass sees exactly the
//     types the build does, including transitive and test-only imports.
//   - When export data is unavailable (a dependency fails to compile, or
//     the build cache is cold and read-only) the loader falls back to the
//     stdlib source importer, which re-typechecks dependencies from source.
//
// Analyzer passes always typecheck the package under analysis from source
// (they need ASTs and full types.Info); only *dependencies* come from
// export data.
//
// The loader also carries two robustness features the analyzers rely on:
// build-constraint filtering (files excluded by //go:build tags are not fed
// to the typechecker) and source overlays (LoadWithOverlay), which let the
// grococa-lint tests typecheck an in-memory mutation of a real package
// without touching the working tree.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/sim"); external test
	// packages get the "_test" suffix.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList runs `go list -json` with the given extra flags and patterns and
// decodes the package stream.
func goList(extra []string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list"}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// exportData builds the import-path → export-archive map for every
// dependency of the patterns, including test-only dependencies. A nil map
// (with nil error) means export data is unavailable and the caller should
// fall back to source resolution.
func exportData(patterns []string) map[string]string {
	flags := []string{"-e", "-export", "-deps", "-test", "-json=ImportPath,Export"}
	listed, err := goList(flags, patterns)
	if err != nil {
		return nil
	}
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export == "" {
			continue
		}
		// Test-variant entries ("pkg [pkg.test]") describe the package
		// recompiled for a test binary; the plain entry wins. Strip the
		// bracket suffix only when no plain entry exists.
		path := lp.ImportPath
		if i := strings.Index(path, " ["); i >= 0 {
			base := path[:i]
			if _, ok := exports[base]; !ok {
				exports[base] = lp.Export
			}
			continue
		}
		exports[path] = lp.Export
	}
	if len(exports) == 0 {
		return nil
	}
	return exports
}

// newImporter builds the dependency resolver for one Load call: compiler
// export data when available, with the source importer as fallback for
// paths the export map does not cover (and for everything when the map is
// empty).
func newImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	source := importer.ForCompiler(fset, "source", nil)
	if exports == nil {
		return source
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return &fallbackImporter{primary: gc, fallback: source, known: exports}
}

// fallbackImporter resolves through export data first and re-typechecks
// from source only for paths without export data. The two importers keep
// separate caches, so a package must never be resolved through both on the
// same unit; known guards that by routing each path consistently.
type fallbackImporter struct {
	primary  types.Importer
	fallback types.Importer
	known    map[string]string
}

func (f *fallbackImporter) Import(path string) (*types.Package, error) {
	if _, ok := f.known[path]; ok {
		return f.primary.Import(path)
	}
	return f.fallback.Import(path)
}

// Load expands the go-list patterns (e.g. "./...") and typechecks every
// matched package. In-package test files are checked together with the
// package proper, mirroring what `go test` compiles; external _test
// packages are returned as separate Packages.
func Load(patterns ...string) ([]*Package, error) {
	return LoadWithOverlay(nil, patterns...)
}

// LoadWithOverlay is Load with an in-memory source overlay: files whose
// absolute path appears in overlay are parsed from the mapped bytes
// instead of disk. Dependencies still resolve from the committed build
// (export data), so an overlay mutation of one package is typechecked
// against the real types of everything it imports. The grococa-lint
// tests inject their defects this way.
func LoadWithOverlay(overlay map[string][]byte, patterns ...string) ([]*Package, error) {
	listed, err := goList([]string{"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles"}, patterns)
	if err != nil {
		return nil, err
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	fset := token.NewFileSet()
	imp := newImporter(fset, exportData(patterns))
	var pkgs []*Package
	for _, lp := range listed {
		units := []struct {
			path  string
			files []string
		}{
			{lp.ImportPath, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)},
			{lp.ImportPath + "_test", lp.XTestGoFiles},
		}
		for _, u := range units {
			if len(u.files) == 0 {
				continue
			}
			abs := make([]string, len(u.files))
			for i, f := range u.files {
				abs[i] = filepath.Join(lp.Dir, f)
			}
			pkg, err := typecheck(fset, imp, u.path, abs, overlay)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir parses and typechecks every buildable .go file directly inside
// dir as one package with the given import path. This is the analysistest
// entry point for standalone fixtures; fixtures that import sibling
// fixture packages go through LoadTree.
func LoadDir(dir, path string) (*Package, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return loadFixtureDir(fset, imp, dir, path)
}

// LoadTree typechecks the fixture package at root/path, resolving imports
// of sibling fixture packages within root (GOPATH-style: the import path
// "internal/sim" resolves to root/internal/sim). Imports not present under
// root fall through to the standard library. Fixture trees let an analyzer
// be tested against realistic cross-package shapes — a fixture package
// using a stand-in kernel type, for example — without leaving testdata.
func LoadTree(root, path string) (*Package, error) {
	fset := token.NewFileSet()
	t := &treeImporter{
		root:     root,
		fset:     fset,
		fallback: importer.ForCompiler(fset, "source", nil),
		loaded:   make(map[string]*Package),
	}
	return t.load(path)
}

// treeImporter resolves fixture-tree imports, memoized per import path.
type treeImporter struct {
	root     string
	fset     *token.FileSet
	fallback types.Importer
	loaded   map[string]*Package
}

func (t *treeImporter) load(path string) (*Package, error) {
	if pkg, ok := t.loaded[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %q in fixture tree", path)
		}
		return pkg, nil
	}
	t.loaded[path] = nil // cycle guard
	pkg, err := loadFixtureDir(t.fset, t, filepath.Join(t.root, filepath.FromSlash(path)), path)
	if err != nil {
		return nil, err
	}
	t.loaded[path] = pkg
	return pkg, nil
}

// Import implements types.Importer over the fixture tree.
func (t *treeImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(t.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := t.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return t.fallback.Import(path)
}

// loadFixtureDir lists the buildable .go files in dir and typechecks them
// as one package.
func loadFixtureDir(fset *token.FileSet, imp types.Importer, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// Respect build constraints (//go:build tags, _platform suffixes):
		// files the build would exclude must not reach the typechecker,
		// where their declarations would collide or dangle.
		if ok, err := ctx.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, e.Name()))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable .go files in %s", dir)
	}
	sort.Strings(files)
	return typecheck(fset, imp, path, files, nil)
}

// typecheck parses the named files (honoring the overlay) and runs the
// typechecker over them. Parse and type errors come back as errors, never
// panics — callers surface them as diagnostics.
func typecheck(fset *token.FileSet, imp types.Importer, path string, filenames []string, overlay map[string][]byte) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		var src any
		if overlay != nil {
			if b, ok := overlay[name]; ok {
				src = b
			}
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("typechecking %s:\n  %s", path, strings.Join(typeErrs, "\n  "))
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
