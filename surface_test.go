package clampi

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the package's exported identifiers")

const apiGolden = "testdata/api.golden"

// publicSurface lists the package's exported identifiers, sorted, one
// per line: "const X", "var X", "func X", "method T.M" and "type X" (an
// alias carries its target: "type X = pkg.T").
func publicSurface(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	add := func(id *ast.Ident, line string) {
		if id.IsExported() {
			out = append(out, line)
		}
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					add(d.Name, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, d.Tok.String()+" "+id.Name)
						}
					case *ast.TypeSpec:
						line := "type " + s.Name.Name
						if s.Assign.IsValid() {
							line += " = " + types.ExprString(s.Type)
						}
						add(s.Name, line)
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestPublicSurface pins the package's exported identifiers to
// testdata/api.golden, so every change to the public API shows up as a
// reviewed diff of that file. Run with -update to rewrite it.
func TestPublicSurface(t *testing.T) {
	got := publicSurface(t)
	if *update {
		if err := os.WriteFile(apiGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("removed from the public API: %s", line)
		}
	}
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("added to the public API: %s", line)
		}
	}
	if !t.Failed() && !slices.Equal(got, want) {
		t.Errorf("%s is not sorted or has duplicates; rewrite it with -update", apiGolden)
	}
}
