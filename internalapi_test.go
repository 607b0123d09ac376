package localut

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported internal functions that only tests
// call and that stay anyway, each with the reason it is kept.
var testOnlyAllowed = map[string]string{
	"perm.Apply":         "test oracle: the permutation SortPerm's output is checked against",
	"quant.UnpackVector": "test oracle: the inverse of PackVector that packed indices are checked against",
	"banksim.DDR4":       "test timing: the second timing set the bank-model properties run under",
	"lut.ResetCache":     "test isolation hook: empties the process-wide LUT cache between tests",
}

// TestNoTestOnlyInternalAPI fails when an exported top-level function or
// method declared under an internal/ directory is named nowhere in the
// module's non-test Go files (commands included) except by its own
// declarations. Such a function is reachable only from tests, so it is
// dead code with a test attached.
//
// The scan matches identifiers by name, not by type. Two declarations that
// share a name can therefore only keep each other alive: a collision can
// hide a dead name, never flag a live one.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	uses := map[string]int{}                  // identifier -> occurrences in non-test files
	decls := map[string]int{}                 // function name -> declarations in non-test files
	type exported struct{ qual, name string } // qual is pkg.Name or pkg.Recv.Name
	var candidates []exported

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.Contains("/"+filepath.ToSlash(path), "/internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fn.Name.Name]++
			if internal && fn.Name.IsExported() {
				qual := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					qual = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				candidates = append(candidates, exported{qual, fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	seen := map[string]bool{}
	for _, c := range candidates {
		if seen[c.qual] || uses[c.name] > decls[c.name] {
			continue
		}
		seen[c.qual] = true
		if _, ok := testOnlyAllowed[c.qual]; !ok {
			dead = append(dead, c.qual)
		}
	}
	sort.Strings(dead)
	for _, q := range dead {
		t.Errorf("%s is exported from an internal package but only tests call it: delete it, or unexport it if its own package uses it", q)
	}
	for q := range testOnlyAllowed {
		if !seen[q] {
			t.Errorf("allowlisted %s now has a non-test caller or is gone: drop it from testOnlyAllowed", q)
		}
	}
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
