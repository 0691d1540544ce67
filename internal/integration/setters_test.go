package integration

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint/loader"
)

// parameterSets are the run parameters, by package path and type name.
// Every field of them must be set by some run: a field that only its
// defaults assign carries one value and belongs in a constant of the
// package that uses it.
var parameterSets = []string{
	"repro/internal/client.Config",
	"repro/internal/resilience.Policy",
}

// defaultFuncs supply the parameter sets' defaults; what they assign sets
// nothing.
var defaultFuncs = []string{
	"repro/internal/client.DefaultConfig",
	"repro/internal/resilience.Legacy",
	"repro/internal/resilience.DefaultPolicy",
}

// TestEveryParameterHasASetter type-checks the module's non-test files and
// requires every field of the parameter sets to be assigned, or bound to a
// flag, outside the functions that supply their defaults. It names each
// field nothing sets.
func TestEveryParameterHasASetter(t *testing.T) {
	pkgs, err := loader.Load("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	set := map[string]bool{}
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "_test") {
			continue
		}
		for _, name := range parameterSets {
			pkgPath, typeName, _ := strings.Cut(name, ".")
			if p.Path != pkgPath {
				continue
			}
			st := p.Types.Scope().Lookup(typeName).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				fields = append(fields, name+"."+st.Field(i).Name())
			}
		}
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && slices.Contains(defaultFuncs, p.Path+"."+fd.Name.Name) {
					continue
				}
				markSetters(p.Info, decl, set)
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no parameter set found")
	}
	var unset []string
	for _, f := range fields {
		if !set[f] {
			unset = append(unset, f)
		}
	}
	if len(unset) > 0 {
		t.Errorf("%d parameters are never set outside their defaults; make each a constant of the package that uses it:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// markSetters records in set every parameter field that node assigns: the
// target of an assignment or increment, an operand of &, which a flag
// binding takes, or a key of a composite literal.
func markSetters(info *types.Info, node ast.Node, set map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSelectors(info, lhs, set)
			}
		case *ast.IncDecStmt:
			markSelectors(info, n.X, set)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markSelectors(info, n.X, set)
			}
		case *ast.CompositeLit:
			if name := parameterSet(info.TypeOf(n)); name != "" {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[name+"."+kv.Key.(*ast.Ident).Name] = true
					}
				}
			}
		}
		return true
	})
}

// markSelectors records every parameter field along a selector chain such
// as cfg.Resilience.Jitter.
func markSelectors(info *types.Info, e ast.Expr, set map[string]bool) {
	for {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if name := parameterSet(s.Recv()); name != "" {
				set[name+"."+sel.Sel.Name] = true
			}
		}
		e = sel.X
	}
}

// parameterSet returns the parameterSets entry naming t, or "".
func parameterSet(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	name := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if !slices.Contains(parameterSets, name) {
		return ""
	}
	return name
}
