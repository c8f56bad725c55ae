// Package doclint holds two API gates, not a library. One test walks
// the packages whose exported surface is meant to read as an API
// reference (`go doc pimphony/internal/serve`) and fails when a
// package lacks a package comment or an exported declaration lacks a
// doc comment; the other (callers_test.go) fails when an exported
// declaration has no caller outside test files. Running under `go test`
// puts both in every CI lane, so the godoc surface cannot rot silently.
package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lintedPackages are the directories whose exported identifiers must
// all carry doc comments (paths relative to the repository root).
var lintedPackages = []string{
	"../serve",
	"../simtest",
}

// TestExportedDeclsAreDocumented parses every non-test file of the
// linted packages and requires a doc comment on the package clause (at
// least one file per package) and on every exported top-level
// declaration: funcs, methods with exported receivers, types, and
// const/var specs (a comment on the enclosing grouped declaration
// covers its specs, matching godoc's rendering).
func TestExportedDeclsAreDocumented(t *testing.T) {
	for _, dir := range lintedPackages {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for name, pkg := range pkgs {
				hasPkgDoc := false
				for _, f := range pkg.Files {
					if f.Doc != nil {
						hasPkgDoc = true
					}
					for _, decl := range f.Decls {
						lintDecl(t, fset, decl)
					}
				}
				if !hasPkgDoc {
					t.Errorf("package %s has no package doc comment in any file", name)
				}
			}
		})
	}
}

// lintDecl reports every exported identifier introduced by decl that
// godoc would render without a doc comment.
func lintDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || exportedRecv(d) != "" && !ast.IsExported(exportedRecv(d)) {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s %s has no doc comment", fset.Position(d.Pos()), funcKind(d), funcName(d))
		}
	case *ast.GenDecl:
		// A doc comment on the grouped declaration documents the whole
		// block in godoc; only undocumented specs inside an
		// undocumented group are findings.
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					t.Errorf("%s: exported type %s has no doc comment", fset.Position(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				if d.Doc != nil || s.Doc != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						t.Errorf("%s: exported %s %s has no doc comment", fset.Position(s.Pos()), d.Tok, n.Name)
					}
				}
			}
		}
	}
}

// exportedRecv returns the receiver's base type name for methods ("",
// for plain functions).
func exportedRecv(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcKind labels a finding as a func or a method.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "func"
}

// funcName renders Recv.Name for methods, Name for functions.
func funcName(d *ast.FuncDecl) string {
	if r := exportedRecv(d); r != "" {
		return r + "." + d.Name.Name
	}
	return d.Name.Name
}
