// Package contract holds the type-aware discovery helpers shared by the
// contract analyzers (epochsync, hotalloc): walking the call closure of a
// function within its package and collecting the struct fields those
// bodies reference. Keeping discovery in one place means every analyzer
// agrees on what a function's reachable code is.
package contract

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// funcDecls indexes the package's function declarations by their defining
// object, so call sites can be resolved back to bodies.
func funcDecls(pass *analysis.Pass) map[types.Object]*ast.FuncDecl {
	idx := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					idx[obj] = fd
				}
			}
		}
	}
	return idx
}

// Closure returns the set of function bodies reachable from root through
// calls to functions and methods declared in the same package (including
// function literals, which are part of the enclosing body). The walk
// over-approximates — it follows every same-package callee regardless of
// receiver value — which is the safe direction for coverage analysis: a
// field counted as referenced through a helper can never produce a false
// "uncovered" report.
func Closure(pass *analysis.Pass, root *ast.FuncDecl) []*ast.FuncDecl {
	decls := funcDecls(pass)
	seen := map[*ast.FuncDecl]bool{root: true}
	work := []*ast.FuncDecl{root}
	var out []*ast.FuncDecl
	for len(work) > 0 {
		fd := work[0]
		work = work[1:]
		out = append(out, fd)
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[fun.Sel]
			}
			if obj == nil || obj.Pkg() != pass.Pkg {
				return true
			}
			if callee, ok := decls[obj]; ok && !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
			return true
		})
	}
	return out
}

// FieldsReferenced collects every struct field object referenced anywhere
// in the given bodies — through selections (x.f), composite literal keys
// (T{F: v}), and method-value shorthand alike, all of which go/types
// records as uses of the field variable.
func FieldsReferenced(pass *analysis.Pass, bodies []*ast.FuncDecl) map[*types.Var]bool {
	covered := make(map[*types.Var]bool)
	for _, fd := range bodies {
		ast.Inspect(fd, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() {
				covered[v] = true
			}
			return true
		})
	}
	return covered
}
