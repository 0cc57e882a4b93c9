package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"strconv"
	"strings"
	"testing"
)

// TestFileOperationsGoThroughFS keeps the FS seam complete: a file
// operation the store made around it would be one the fault and crash
// tests never see. Outside fs.go, which holds the os implementation, no
// non-test file of the package calls into os or io/ioutil (none needs to
// for anything else) or walks a directory with filepath.
func TestFileOperationsGoThroughFS(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, fi := range files {
		name := fi.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "fs.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch p := imports[pkg.Name]; {
			case p == "os", p == "io/ioutil",
				p == "path/filepath" && strings.HasPrefix(sel.Sel.Name, "Walk"):
				t.Errorf("%s: %s.%s goes around the FS seam", fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
	if checked < 3 {
		t.Fatalf("checked %d files; the package's sources were not found", checked)
	}
}
