package integration

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExportedIdentifiersDocumented walks every non-test Go file in the
// repository and fails on exported declarations without doc comments — the
// library's documentation contract.
func TestAllExportedIdentifiersDocumented(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	missing, err := undocumentedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestUndocumentedExportsSkipsWhatGoSkips checks the walk over a temporary
// tree: it reports an undocumented exported function in a package
// directory, and skips the directories the go command ignores — names
// starting with "." or "_", and testdata — such as the unpacked base trees
// under .bench_build/.
func TestUndocumentedExportsSkipsWhatGoSkips(t *testing.T) {
	root := t.TempDir()
	const undocumented = "package p\n\nfunc Exported() {}\n"
	for _, dir := range []string{"pkg", ".bench_build/ab-0/pkg", "_old", "pkg/testdata"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, dir, "p.go"), []byte(undocumented), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	missing, err := undocumentedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("pkg", "p.go") + ": func Exported"
	if len(missing) != 1 || missing[0] != want {
		t.Errorf("missing = %q, want [%q]", missing, want)
	}
}

// undocumentedExports lists, relative to root, the exported declarations
// without doc comments in the non-test Go files under root, skipping the
// directories the go command ignores.
func undocumentedExports(root string) ([]string, error) {
	var missing []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// Methods on unexported receivers (e.g. sort.Interface
				// plumbing) are not part of the public API.
				if d.Name.IsExported() && d.Doc == nil && !hasUnexportedReceiver(d) {
					missing = append(missing, rel+": func "+d.Name.Name)
				}
			case *ast.GenDecl:
				// A doc comment on the GenDecl covers the whole block.
				blockDocumented := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !blockDocumented && s.Doc == nil && s.Comment == nil {
							missing = append(missing, rel+": type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						if blockDocumented || s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() {
								missing = append(missing, rel+": value "+name.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	return missing, err
}

// hasUnexportedReceiver reports whether the function is a method on an
// unexported type.
func hasUnexportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	expr := d.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	ident, ok := expr.(*ast.Ident)
	return ok && !ident.IsExported()
}

// repoRoot locates the module root by walking up to go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
