// Package epochsync statically enforces the connectivity-notification
// protocol of the spatial index (DESIGN.md "Spatial index"): the medium
// tracks the earliest re-sample time over connected hosts only, so every
// state transition that changes what a peer's Connected() method returns
// must notify the medium through ConnectivityChanged. A write that skips
// the notification can leave a reconnected host that is due for
// re-sampling unsampled, out of the brute-force scan's call order — a bug
// the runtime equivalence tests only catch when a seed happens to exercise
// the window.
//
// The analyzer is type-aware. For every named struct type in the package
// with a `Connected() bool` method (the network.Peer connectivity
// contract), it computes the connectivity field set: the receiver fields
// referenced anywhere in the call closure of Connected. It then flags every
// assignment to such a field (plain, compound, or inside a function
// literal) whose enclosing function's same-package call closure never calls
// a method named ConnectivityChanged. Notifying through a same-package
// helper therefore counts, exactly as the runtime contract allows.
//
// Constructors that initialize connectivity fields through composite
// literals are exempt by construction — registration with the medium
// notifies it itself — and so are test files. A deliberate unnotified write
// (e.g. state replay before the peer is registered) is suppressed at the
// assignment with //lint:ignore epochsync <reason>.
package epochsync

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/contract"
)

// Analyzer is the epochsync pass.
var Analyzer = &analysis.Analyzer{
	Name: "epochsync",
	Doc:  "flags writes to Connected()-affecting state without a ConnectivityChanged notification on the same path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	connFields := connectivityFields(pass)
	if len(connFields) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			writes := connectivityWrites(pass, fd, connFields)
			if len(writes) == 0 {
				continue
			}
			if closureNotifies(pass, fd) {
				continue
			}
			for _, w := range writes {
				pass.Reportf(w.Pos(),
					"write to connectivity field %s without a Medium.ConnectivityChanged notification on the same path: the medium's earliest re-sample time would miss a reconnected host",
					w.Name)
			}
		}
	}
	return nil
}

// connectivityFields returns the fields that feed some type's
// Connected() bool method: for each named struct in the package declaring
// the method, every field referenced in the method's call closure.
func connectivityFields(pass *analysis.Pass) map[*types.Var]bool {
	fields := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Connected" {
				continue
			}
			if pass.IsTestFile(fd.Pos()) {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				continue
			}
			basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
			if !ok || basic.Kind() != types.Bool {
				continue
			}
			for v := range contract.FieldsReferenced(pass, contract.Closure(pass, fd)) {
				fields[v] = true
			}
		}
	}
	return fields
}

// connectivityWrites collects the identifiers in fd's body that are
// assigned to (plain or compound assignment, ++/--) and resolve to a
// connectivity field.
func connectivityWrites(pass *analysis.Pass, fd *ast.FuncDecl, connFields map[*types.Var]bool) []*ast.Ident {
	var writes []*ast.Ident
	record := func(expr ast.Expr) {
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && connFields[v] {
			writes = append(writes, sel.Sel)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(st.X)
		}
		return true
	})
	return writes
}

// closureNotifies reports whether fd's same-package call closure contains a
// call to a method named ConnectivityChanged.
func closureNotifies(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, body := range contract.Closure(pass, fd) {
		if body.Body == nil {
			continue
		}
		found := false
		ast.Inspect(body.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "ConnectivityChanged" {
				if s, isSel := pass.TypesInfo.Selections[sel]; isSel && s.Kind() == types.MethodVal {
					found = true
					return false
				}
				// Package-qualified or interface call resolved through
				// Uses rather than Selections.
				if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
