package mlbs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFacadeExportsAreUsed keeps the facade to the names its users call.
// An exported name in mlbs.go must be referenced as mlbs.X by a command,
// an example program, example_test.go or the README, or be needed by the
// signature of an exported name that is; anything else is surface that
// nothing calls, and belongs in its internal package only.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "mlbs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// sig maps each exported facade name to the facade names its
	// signature (function parameters and results) mentions.
	sig := map[string][]string{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				sig[d.Name.Name] = identsIn(d.Type)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						sig[s.Name.Name] = nil
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							sig[n.Name] = nil
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return facadeRefs(fset, path, used)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := facadeRefs(fset, "example_test.go", used); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\bmlbs\.([A-Z]\w*)`).FindAllStringSubmatch(string(readme), -1) {
		used[m[1]] = true
	}

	// A kept name keeps every facade name its signature needs.
	queue := make([]string, 0, len(used))
	for n := range used {
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, dep := range sig[n] {
			if _, ok := sig[dep]; ok && !used[dep] {
				used[dep] = true
				queue = append(queue, dep)
			}
		}
	}

	var unused []string
	for n := range sig {
		if !used[n] {
			unused = append(unused, n)
		}
	}
	slices.Sort(unused)
	if len(unused) > 0 {
		t.Errorf("mlbs.go exports %d names nothing uses; delete them or use them from cmd/, examples/, example_test.go or README.md:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// facadeRefs records every mlbs.X selector in the Go file at path.
func facadeRefs(fset *token.FileSet, path string, used map[string]bool) error {
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return err
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "mlbs" {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
	return nil
}

// identsIn lists the identifiers a syntax subtree mentions.
func identsIn(n ast.Node) []string {
	var ids []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids = append(ids, id.Name)
		}
		return true
	})
	return ids
}
