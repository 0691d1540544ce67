// Package mapiterorder flags `for … range` loops over maps whose bodies
// are sensitive to iteration order — the exact bug class that perturbed
// the Jain fairness index by one ULP in PR 1. Go randomizes map iteration
// order on purpose, so any such loop breaks the simulator's bit-identical
// reproducibility guarantee.
//
// A map-range loop is reported when its body
//
//   - accumulates into a float or string variable (`sum += v`,
//     `s = s + v`): float addition is not associative and string building
//     is order-defined, so the result depends on visit order;
//   - appends to a slice that is not sorted afterwards in the same block:
//     the slice ends up in randomized order (collecting keys and sorting
//     them immediately after the loop is the sanctioned idiom and is not
//     reported);
//   - draws from an RNG (*math/rand.Rand or the simulator's named-stream
//     sim.RNG): the stream consumption order, and therefore every
//     downstream value, becomes run-dependent;
//   - assigns the range key to a variable declared outside the loop: an
//     argmin or argmax that keeps a key selects, among tied values,
//     whichever key the iteration visits first;
//   - calls through a func-typed variable, parameter or field (not a
//     declared function or method): a callback's effects, such as a
//     waiter falling back to another path, then happen in visit order,
//     and nothing at the call site shows that they commute.
//
// Iterate over sorted keys instead.
package mapiterorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the mapiterorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "mapiterorder",
	Doc:  "flags range-over-map loops whose bodies depend on iteration order (float/string accumulation, unsorted appends, RNG draws, keys kept past the loop, calls through func values)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		list := stmtList(n)
		if list == nil {
			return true
		}
		for i, stmt := range list {
			rs, ok := unwrapRange(stmt)
			if !ok || !isMapRange(pass, rs) {
				continue
			}
			checkBody(pass, rs, list[i+1:])
		}
		return true
	})
	return nil
}

// stmtList returns the statement list a node carries, if any — the
// contexts a range statement can be a direct child of.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// unwrapRange unwraps labels and returns the statement as a RangeStmt.
func unwrapRange(s ast.Stmt) (*ast.RangeStmt, bool) {
	for {
		if l, ok := s.(*ast.LabeledStmt); ok {
			s = l.Stmt
			continue
		}
		rs, ok := s.(*ast.RangeStmt)
		return rs, ok
	}
}

// isMapRange reports whether rs ranges over a map value.
func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkBody reports each order-sensitive operation in the loop body.
// rest is the tail of the enclosing statement list after the loop, used
// to recognize the collect-then-sort idiom.
func checkBody(pass *analysis.Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested map ranges are flagged on their own visit.
			if n != rs && isMapRange(pass, n) {
				return false
			}
		case *ast.AssignStmt:
			checkAccumulation(pass, n)
			checkAppend(pass, n, rest)
			checkKeyEscape(pass, rs, n)
		case *ast.CallExpr:
			checkRNG(pass, n)
			checkFuncValueCall(pass, n)
		}
		return true
	})
}

// checkAccumulation flags `x += v`-style (and `x = x + v`) accumulation
// into floats and strings.
func checkAccumulation(pass *analysis.Pass, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if kind, ok := orderSensitiveKind(pass, as.Lhs[0]); ok {
			pass.Reportf(as.Pos(), "map iteration order affects %s accumulation into %s; iterate over sorted keys",
				kind, exprString(as.Lhs[0]))
		}
	case token.ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok || !mentions(pass, bin, pass.TypesInfo.Uses[lhs]) {
			return
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if kind, ok := orderSensitiveKind(pass, lhs); ok {
				pass.Reportf(as.Pos(), "map iteration order affects %s accumulation into %s; iterate over sorted keys",
					kind, lhs.Name)
			}
		}
	}
}

// orderSensitiveKind classifies an accumulation target whose result
// depends on operand order: floats (non-associative) and strings
// (order-defined concatenation). Integer accumulation is associative and
// therefore safe.
func orderSensitiveKind(pass *analysis.Pass, e ast.Expr) (string, bool) {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return "", false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "", false
	}
	switch {
	case b.Info()&types.IsFloat != 0, b.Info()&types.IsComplex != 0:
		return "float", true
	case b.Info()&types.IsString != 0:
		return "string", true
	}
	return "", false
}

// mentions reports whether expression e references object obj.
func mentions(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkAppend flags `s = append(s, …)` inside the loop unless s is sorted
// by one of the recognized sort calls later in the enclosing block.
func checkAppend(pass *analysis.Pass, as *ast.AssignStmt, rest []ast.Stmt) {
	for _, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 {
			continue
		}
		target, ok := call.Args[0].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[target]
		if obj == nil {
			obj = pass.TypesInfo.Defs[target]
		}
		if sortedLater(pass, obj, rest) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s inside map iteration leaves it in randomized order; sort it after the loop or iterate over sorted keys",
			target.Name)
	}
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// sortFuncs are the sort entry points that neutralize append order when
// applied to the collected slice after the loop.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedLater reports whether one of the trailing statements sorts obj.
func sortedLater(pass *analysis.Pass, obj types.Object, rest []ast.Stmt) bool {
	if obj == nil {
		return false
	}
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
			if !ok {
				return true
			}
			names := sortFuncs[pkgName.Imported().Path()]
			if names == nil || !names[sel.Sel.Name] {
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[arg] == obj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkKeyEscape flags `x = k` inside the loop when k is the range key
// and x is declared outside the loop: which key x keeps then depends on
// visit order whenever the selection has ties.
func checkKeyEscape(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	keyObj := pass.TypesInfo.Defs[key]
	if keyObj == nil {
		keyObj = pass.TypesInfo.Uses[key]
	}
	for i, rhs := range as.Rhs {
		id, ok := rhs.(*ast.Ident)
		if !ok || keyObj == nil || pass.TypesInfo.Uses[id] != keyObj {
			continue
		}
		lhs, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
			continue
		}
		pass.Reportf(as.Pos(), "map key %s kept in %s past the loop depends on iteration order among ties; iterate over sorted keys",
			key.Name, lhs.Name)
	}
}

// checkRNG flags method calls on RNG types inside the loop: consuming
// randomness in map order desynchronizes the stream between runs.
func checkRNG(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := pass.TypesInfo.Types[sel.X].Type
	if recv == nil {
		return
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	isRand := obj.Pkg() != nil && (obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2")
	if !isRand && obj.Name() != "RNG" {
		return
	}
	pass.Reportf(call.Pos(), "RNG draw %s.%s inside map iteration consumes the stream in randomized order; iterate over sorted keys",
		exprString(sel.X), sel.Sel.Name)
}

// checkFuncValueCall flags a call whose callee is a func-typed variable,
// parameter or field rather than a declared function or method: the
// callback runs once per visited entry, in randomized order.
func checkFuncValueCall(pass *analysis.Pass, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return
	}
	pass.Reportf(call.Pos(), "call through func value %s inside map iteration runs it in randomized order; iterate over sorted keys",
		exprString(call.Fun))
}

// exprString renders a short name for simple expressions in diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expression"
}
