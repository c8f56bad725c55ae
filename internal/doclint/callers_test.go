package doclint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// calleeAllowlist holds the exported API that no non-test code calls
// but that stays exported on purpose, keyed by the API's full name (a
// package path exempts the whole package), each with its reason.
var calleeAllowlist = map[string]string{
	"(*pimphony/internal/isa.Program).Expand": "the functional semantics of DYNLOOP; the isa and compiler tests compare programs against it",
	"(pimphony/internal/kernels.Config).GEMV": "the materialized-stack reference the sched, kernels and compiler tests compare scheduled, streamed and lowered kernels against",
	"(pimphony/internal/kernels.Config).QKT":  "the materialized-stack reference the sched, kernels and compiler tests compare scheduled, streamed and lowered kernels against",
	"pimphony/internal/simtest":               "a test-support package: its API exists for other packages' tests",
}

// TestExportedAPIHasCallers fails when an exported func, method or
// type of the module, or an exported method of one of its interfaces,
// has no caller outside test files. Callers count from the module's
// non-test files (cmd/ and examples/ included) and from perfbench, the
// separate benchmark module. CI's staticcheck reports only unused
// unexported code, so this is the gate that keeps test-only exported
// API from accumulating.
func TestExportedAPIHasCallers(t *testing.T) {
	const root = "../.."
	mod := goList(t, root)
	bench := goList(t, filepath.Join(root, "perfbench"))
	exports := map[string]string{}
	for _, p := range append(mod, bench...) {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	c := newChecker(func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	// go list -deps prints every package after its dependencies, so
	// each module package is checked after the ones it imports.
	var defs, users []checkedPkg
	for _, p := range mod {
		if !p.Standard && len(p.GoFiles) > 0 {
			defs = append(defs, c.checkDir(t, p))
		}
	}
	for _, p := range bench {
		if !p.Standard && len(p.GoFiles) > 0 && c.checked[p.ImportPath] == nil {
			users = append(users, c.checkDir(t, p))
		}
	}
	if dead := deadExports(c.fset, defs, users, calleeAllowlist); len(dead) > 0 {
		t.Errorf("%s\n\nDelete each, or move it into the _test.go files of the one package whose tests use it. "+
			"Only a reference that tests in several packages compare against may stay, on calleeAllowlist with its reason.",
			strings.Join(dead, "\n"))
	}
}

// listedPkg is the part of `go list -json` output the lint reads.
type listedPkg struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
}

// goList lists the packages of the module in dir with all their
// dependencies, dependencies first, each with the export data the
// test's own toolchain compiled for it: go test puts its GOROOT/bin
// first on the test's PATH, so "go" is that toolchain.
func goList(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,Standard,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// checkedPkg is one package type-checked from source.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// checker type-checks packages from source in dependency order. An
// import of a package it has checked resolves to that package, so every
// checked package shares one set of objects; any other import (the
// standard library) resolves through export data.
type checker struct {
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*types.Package
}

// newChecker returns a checker that reads export data through lookup
// (nil: the toolchain's own lookup).
func newChecker(lookup importer.Lookup) *checker {
	fset := token.NewFileSet()
	return &checker{fset: fset, std: importer.ForCompiler(fset, "gc", lookup), checked: map[string]*types.Package{}}
}

// Import implements types.Importer.
func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// checkDir parses and checks the listed package's non-test files.
func (c *checker) checkDir(t *testing.T, p listedPkg) checkedPkg {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	cp, err := c.check(p.ImportPath, files)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// check type-checks files as the package at path.
func (c *checker) check(path string, files []*ast.File) (checkedPkg, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return checkedPkg{}, err
	}
	c.checked[path] = pkg
	return checkedPkg{pkg, files, info}, nil
}

// deadExports returns "file:line: exported X has no non-test caller"
// for every exported func, method and type that a package in defs
// declares and no package in defs or users refers to: a call, a
// function or method value and a type reference each count. Exempt are
// the allowlisted names and packages, and a method whose receiver type,
// as a value or a pointer, implements an interface with a method of
// that name (error, or one declared in a checked package or one it
// imports), since an interface call reaches it. An exported method
// declared in an interface of a package in defs is reported when no
// package selects a method of that name on a type that implements the
// interface, the interface itself included. main and init are
// unexported, so never reported.
func deadExports(fset *token.FileSet, defs, users []checkedPkg, allow map[string]string) []string {
	used := map[string]bool{}
	ifaces := map[string][]*types.Interface{}
	// selected holds, by method name, the receiver types of every
	// method selection: x.M, a call or a value, and T.M.
	selected := map[string][]types.Type{}
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
	}
	addIfaces(types.Universe)
	for _, cp := range append(append([]checkedPkg(nil), defs...), users...) {
		for _, obj := range cp.info.Uses {
			if k := apiKey(obj); k != "" {
				used[k] = true
			}
		}
		for _, sel := range cp.info.Selections {
			if sel.Kind() != types.FieldVal {
				selected[sel.Obj().Name()] = append(selected[sel.Obj().Name()], sel.Recv())
			}
		}
		addIfaces(cp.pkg.Scope())
		for _, imp := range cp.pkg.Imports() {
			addIfaces(imp.Scope())
		}
	}

	type finding struct {
		pos token.Position
		key string
	}
	var dead []finding
	report := func(id *ast.Ident, obj types.Object) {
		k := apiKey(obj)
		if used[k] || allow[k] != "" || allow[obj.Pkg().Path()] != "" {
			return
		}
		if fn, ok := obj.(*types.Func); ok && reachedByInterface(fn, ifaces) {
			return
		}
		dead = append(dead, finding{fset.Position(id.Pos()), k})
	}
	reportIface := func(id *ast.Ident, fn *types.Func, it *types.Interface) {
		k := apiKey(fn)
		if allow[k] != "" || allow[fn.Pkg().Path()] != "" {
			return
		}
		for _, recv := range selected[fn.Name()] {
			if implements(recv, it) {
				return
			}
		}
		dead = append(dead, finding{fset.Position(id.Pos()), k})
	}
	for _, cp := range defs {
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						report(d.Name, cp.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						s, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if s.Name.IsExported() {
							report(s.Name, cp.info.Defs[s.Name])
						}
						it, ok := s.Type.(*ast.InterfaceType)
						if !ok || s.TypeParams != nil {
							continue
						}
						iface := cp.info.Defs[s.Name].Type().Underlying().(*types.Interface)
						for _, m := range it.Methods.List {
							for _, name := range m.Names {
								if name.IsExported() {
									reportIface(name, cp.info.Defs[name].(*types.Func), iface)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	msgs := make([]string, len(dead))
	for i, f := range dead {
		msgs[i] = fmt.Sprintf("%s: exported %s has no non-test caller", f.pos, f.key)
	}
	return msgs
}

// apiKey names a package-level func, method or type the same way
// whether it was declared, used or instantiated: a func or method by the
// full name of its generic origin, a type by its qualified name. Any
// other object has no key.
func apiKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().FullName()
	case *types.TypeName:
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

// reachedByInterface reports whether fn is a method whose receiver
// type, as a value or a pointer, implements one of the interfaces that
// declare a method of fn's name.
func reachedByInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if implements(t, it) {
			return true
		}
	}
	return false
}

// implements reports whether t, as a value or a pointer, implements it.
func implements(t types.Type, it *types.Interface) bool {
	if types.Implements(t, it) {
		return true
	}
	_, isPtr := t.(*types.Pointer)
	return !isPtr && !types.IsInterface(t) && types.Implements(types.NewPointer(t), it)
}

// TestDeadExportsRules pins the lint's rules on an in-memory fixture:
// two module packages, a library and a command, and a perfbench-like
// package that only calls into the library. The four dead exports,
// one an interface method nobody calls, are reported and nothing else:
// not a method reached through a module interface declared by its
// caller, through fmt.Stringer or, with a pointer receiver, through
// error; not an interface method called through the interface, or only
// on a type that implements it; not a function used as a value or an
// instantiated generic function or method; not an allowlisted name; and
// not a function only the perfbench-like package calls.
func TestDeadExportsRules(t *testing.T) {
	const lib = `package lib

import "fmt"

type Box struct{ n int }

func (b Box) Size() int      { return b.n }
func (b Box) String() string { return fmt.Sprint(b.n) }
func (b Box) Dead() int      { return 0 }

type Fail struct{}

func (*Fail) Error() string { return "fail" }

type Preset struct{ Make func() Box }

func CENT() Box { return Box{} }

func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

type Stack[T any] struct{ xs []T }

func (s *Stack[T]) Push(x T) { s.xs = append(s.xs, x) }

func Dead()      {}
func Ref()       {}
func BenchOnly() {}

type Unused struct{}

type Shape interface {
	Area() int
	Sides() int
	Unseen() int
}

type Square struct{}

func (Square) Area() int   { return 1 }
func (Square) Sides() int  { return 4 }
func (Square) Unseen() int { return 0 }

var Presets = []Preset{{Make: CENT}}

var _ error = (*Fail)(nil)

func use() int {
	var st Stack[int]
	st.Push(1)
	return len(Map([]int{1}, func(x int) int { return x }))
}
`
	const app = `package main

import "fix/lib"

type sizer interface{ Size() int }

func main() {
	var s sizer = lib.Presets[0].Make()
	_ = s.Size()
	var sh lib.Shape = lib.Square{}
	_ = sh.Area()
	_ = lib.Square{}.Sides()
}
`
	const bench = `package bench

import "fix/lib"

func Run() { lib.BenchOnly() }
`
	c := newChecker(nil)
	check := func(path, src string) checkedPkg {
		f, err := parser.ParseFile(c.fset, path+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := c.check(path, []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	defs := []checkedPkg{check("fix/lib", lib), check("fix/app", app)}
	users := []checkedPkg{check("fix/bench", bench)}
	got := deadExports(c.fset, defs, users, map[string]string{"fix/lib.Ref": "a pinned reference"})
	want := []string{"(fix/lib.Box).Dead", "fix/lib.Dead", "fix/lib.Unused", "(fix/lib.Shape).Unseen"}
	if len(got) != len(want) {
		t.Fatalf("findings:\n%s\nwant exactly %v", strings.Join(got, "\n"), want)
	}
	for i, k := range want {
		if !strings.Contains(got[i], ": exported "+k+" has no non-test caller") {
			t.Errorf("finding %d = %q, want %s", i, got[i], k)
		}
	}
}
