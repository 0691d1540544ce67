// Package hotalloc statically backstops the zero-allocation pins on the
// simulator's hot paths (testing.AllocsPerRun in the spatial-index tests,
// the ops/sec gates in BENCH_*.json): functions annotated with a
//
//	//hot: <why this function must not allocate>
//
// doc-comment line are checked, together with their same-package call
// closure, against an allocation heuristic. The runtime pins catch a
// regression only on the exact call pattern they measure; the analyzer
// flags the allocation at its source line the moment it is written.
//
// Four allocation shapes are flagged inside a hot closure:
//
//  1. Calls into package fmt (Sprintf and friends) — formatting allocates
//     its result and boxes every operand.
//  2. make — every make call allocates; hot paths reuse scratch buffers
//     owned by the receiver (grid.sparse, medium.neighbors) instead.
//  3. append to a fresh, unsized local slice (declared `var s []T` or
//     `s := []T{}`) — growth reallocates on every few appends. Appending
//     to caller-provided or receiver-owned scratch is the sanctioned idiom
//     and is not flagged.
//  4. Escaping closures and interface boxing — a func literal that
//     captures surrounding variables allocates its context, and passing or
//     assigning a concrete non-pointer value where an interface is
//     expected allocates the box.
//
// The heuristic is deliberately conservative in what it exempts (pointer
// conversions, pre-sized scratch reuse) and deliberately noisy in what it
// keeps (a sized make is still a per-call allocation). A justified
// allocation — e.g. a once-per-instance lazy init — moves out of the hot
// closure (into the constructor, for example); no comment silences a
// finding.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation patterns (fmt, make, unsized append, escaping closures, interface boxing) in //hot:-annotated functions and their callees",
	Run:  run,
}

// hotMark is the doc-comment prefix that opts a function into the check.
const hotMark = "//hot:"

func run(pass *analysis.Pass) error {
	type report struct {
		pos  token.Pos
		kind string
	}
	seen := make(map[report]bool)
	reportf := func(pos token.Pos, kind, format string, args ...any) {
		k := report{pos, kind}
		if seen[k] {
			return
		}
		seen[k] = true
		pass.Reportf(pos, format, args...)
	}

	decls := funcDecls(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !isHot(fd) || pass.IsTestFile(fd.Pos()) {
				continue
			}
			for _, body := range closure(pass, decls, fd) {
				if body.Body == nil {
					continue
				}
				checkBody(pass, fd.Name.Name, body, reportf)
			}
		}
	}
	return nil
}

// isHot reports whether the declaration carries a //hot: doc line.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotMark) {
			return true
		}
	}
	return false
}

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

// closure returns the function bodies reachable from root through calls to
// functions and methods declared in the same package (function literals
// are part of the enclosing body). The walk over-approximates: it follows
// every same-package callee regardless of receiver value, so a hot path
// is checked against more code, never less.
func closure(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, root *ast.FuncDecl) []*ast.FuncDecl {
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

// checkBody applies the allocation heuristics to one function body that is
// reachable from the hot root named root.
func checkBody(pass *analysis.Pass, root string, fd *ast.FuncDecl, reportf func(token.Pos, string, string, ...any)) {
	unsized := unsizedLocals(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, root, e, unsized, reportf)
		case *ast.FuncLit:
			if v := capturedVar(pass, e); v != nil {
				reportf(e.Pos(), "closure",
					"closure captures %s and allocates its context on the hot path of %s; hoist the closure or pass state explicitly",
					v.Name(), root)
			}
		case *ast.AssignStmt:
			for i, lhs := range e.Lhs {
				if i >= len(e.Rhs) {
					break
				}
				checkBoxing(pass, root, lhsType(pass, lhs), e.Rhs[i], reportf)
			}
		}
		return true
	})
}

// checkCall flags fmt calls, make, unsized-append growth, and boxing at
// call boundaries.
func checkCall(pass *analysis.Pass, root string, call *ast.CallExpr, unsized map[*types.Var]bool, reportf func(token.Pos, string, string, ...any)) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				reportf(call.Pos(), "make",
					"make allocates on the hot path of %s; reuse a scratch buffer owned by the receiver or caller", root)
				return
			}
		case "append":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				if id, ok := call.Args[0].(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && unsized[v] {
						reportf(call.Pos(), "append",
							"append grows the unsized local slice %s on the hot path of %s; pre-size it or append into reused scratch", id.Name, root)
					}
				}
				return
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if p := obj.Pkg(); p != nil && p.Path() == "fmt" {
				reportf(call.Pos(), "fmt",
					"fmt.%s allocates its result and boxes every operand on the hot path of %s", fun.Sel.Name, root)
				return
			}
		}
	}

	// Interface boxing at argument positions.
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() { // conversions are not calls
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, root, pt, arg, reportf)
	}
}

// lhsType resolves the static type of an assignment target. Identifiers
// defined by the assignment itself (:=) infer their type from the value —
// no conversion, no boxing — so they resolve to nil.
func lhsType(pass *analysis.Pass, expr ast.Expr) types.Type {
	if id, ok := expr.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// checkBoxing flags a concrete non-pointer value landing in an
// interface-typed slot: the conversion allocates the box. Pointers,
// interfaces, and nil fit the interface data word without allocating.
func checkBoxing(pass *analysis.Pass, root string, dst types.Type, src ast.Expr, reportf func(token.Pos, string, string, ...any)) {
	if dst == nil {
		return
	}
	if _, isTypeParam := dst.(*types.TypeParam); isTypeParam {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	st := tv.Type
	if st == types.Typ[types.UntypedNil] {
		return
	}
	switch st.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature:
		return // data word fits; no box allocation
	}
	reportf(src.Pos(), "boxing",
		"value of concrete type %s is boxed into interface %s on the hot path of %s", st, dst, root)
}

// unsizedLocals collects local slice variables declared with no backing
// array: `var s []T` or `s := []T{}`. Appending to one reallocates as it
// grows, which is the growth pattern the pin tests catch only at runtime.
func unsizedLocals(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(id *ast.Ident) {
		if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				out[v] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if cl, ok := st.Rhs[i].(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// capturedVar returns one variable the func literal captures from its
// enclosing function, or nil when the literal is capture-free (a static
// closure, which does not allocate).
func capturedVar(pass *analysis.Pass, fl *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pass.Pkg {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == pass.Pkg.Scope() {
			return true
		}
		// Declared inside the literal (params or locals): not a capture.
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true
		}
		captured = v
		return false
	})
	return captured
}
