// Package analysis is a minimal, dependency-free clone of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// typechecked package through a Pass and reports Diagnostics. The container
// this repo builds in has no module proxy, so the suite is built on the
// standard library (go/ast, go/types) with the same shape as the upstream
// API; swapping to x/tools later is a mechanical change.
//
// The determinism analyzers in the sibling packages all run through this
// interface, and cmd/grococa-lint is the multichecker that drives them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and in grococa-lint's
	// per-analyzer counts. It must be a single lowercase word.
	Name string
	// Doc is the one-paragraph description printed by the driver's help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one typechecked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Inspect walks every file of the pass in depth-first order, calling fn for
// each node. fn returning false prunes the subtree, mirroring ast.Inspect.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	name := p.Fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
