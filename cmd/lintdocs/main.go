// Command lintdocs enforces doc comments on the exported surface of the
// given package directories: every exported top-level function, method
// on an exported type, type, variable and constant must carry a doc
// comment (a group comment on the enclosing var/const/type block
// counts). It prints one file:line per violation and exits nonzero if
// any were found — `make lint-docs` runs it over every package of the
// root module as part of verify-extended.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: lintdocs <pkgdir>...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintdocs:", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lintdocs: %d exported identifier(s) missing doc comments\n", bad)
		os.Exit(1)
	}
}

// lintDir checks one package directory (test files excluded) and
// reports the number of undocumented exported identifiers.
func lintDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: exported %s %s has no doc comment\n", p.Filename, p.Line, kind, name)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return bad, nil
}

// exportedRecv reports whether a method's receiver type is exported
// (free functions count as exported receivers).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// lintGenDecl checks a type/var/const declaration: a doc comment on the
// declaration group covers the whole block; otherwise each exported
// spec needs its own doc or trailing comment.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
		return
	}
	if d.Doc != nil {
		return
	}
	kind := map[token.Token]string{token.TYPE: "type", token.VAR: "variable", token.CONST: "constant"}[d.Tok]
	for _, s := range d.Specs {
		switch spec := s.(type) {
		case *ast.TypeSpec:
			if spec.Name.IsExported() && spec.Doc == nil && spec.Comment == nil {
				report(spec.Pos(), kind, spec.Name.Name)
			}
		case *ast.ValueSpec:
			if spec.Doc != nil || spec.Comment != nil {
				continue
			}
			for _, name := range spec.Names {
				if name.IsExported() {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}
