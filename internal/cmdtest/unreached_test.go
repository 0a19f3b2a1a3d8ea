// Unreached-declaration coverage: every top-level function, method,
// type, variable and constant in a non-test file of the tree must be
// reached by something that ships or by another directory's tests, and
// every untagged struct field must be read somewhere.
// The check type-checks the module packages from source with go/types
// and imports the standard library from the export data `go list
// -export` leaves in the build cache, so it needs no tool beyond the
// Go toolchain and no network.
package cmdtest

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

// unreachedAllow names the facade API kept although only the tests
// beside it reach it. Each entry says why it stays.
var unreachedAllow = map[string]string{
	"predabs.Verify":     "the package doc's SLAM entry point for programs whose properties are asserts",
	"predabs.Outcome":    "the type of VerifyResult.Outcome, which callers compare with the verdict constants",
	"predabs.Verified":   "the verdict a caller compares with to read a proof; ErrorFound and Unknown have callers",
	"predabs.StageError": "the error type the README promises for a failed stage; callers unwrap it with errors.As",
}

// TestUnreachedDeclarations runs the rule over the root module (with
// examples/) and the benchmark harness's module.
func TestUnreachedDeclarations(t *testing.T) {
	root := repoRoot()
	for _, f := range unreached(t, root, []string{root, filepath.Join(root, "cmd", "bench")}, unreachedAllow) {
		t.Error(f)
	}
}

// TestUnreachedFixture pins each verdict of the rule on a tiny module.
func TestUnreachedFixture(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "unreached"))
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(t, dir, []string{dir}, map[string]string{"fixture.Allowed": "pins the allowlist"})
	want := []string{
		"fixture.go:8: fixture.Dead is dead",
		"fixture.go:11: fixture.Recursive is dead",
		"fixture.go:19: fixture.sameDir is same-dir-tests-only",
		"fixture.go:50: fixture.holder.written is write-only",
		"fixture.go:53: fixture.holder.grown is write-only",
		"fixture.go:56: fixture.holder.grownAt is write-only",
		"fixture.go:62: fixture.holder.Exported is write-only",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// listedPkg is the part of `go list -json` output the check reads.
type listedPkg struct {
	ImportPath                string
	Dir                       string
	Export                    string
	Module                    *struct{} // nil for the standard library
	GoFiles                   []string
	TestGoFiles, XTestGoFiles []string
	TestImports, XTestImports []string
}

func goList(t *testing.T, dir string, args ...string) []*listedPkg {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one top-level declaration under check, with what reaches it.
type decl struct {
	name       string // import path, receiver type and name: "predabs/internal/bdd.Manager.Eval"
	pos        token.Position
	start, end token.Pos // the declaration's own source, whose self-references do not count
	obj        types.Object
	live       bool // used by non-test code or by another directory's tests
	sameDir    bool // used by tests in its own directory
}

// unreached type-checks every package of the modules rooted at modDirs
// and returns one "file:line: name is verdict" line per declaration
// under root that breaks the rule, paths relative to root, in order.
//
// The rule: a top-level declaration in a non-test file is live when
// non-test code uses it, or when a _test.go file in a different
// directory does (Go cannot import another directory's test files, so
// helpers shared across directories live in non-test files). A method
// is also live when its type implements an interface with that method
// that non-test code uses, or one the standard library calls on values
// it is handed (fmt.Stringer, error, errors' Unwrap/Is/As, ...). Uses
// inside a declaration's own source and in method receivers do not
// count. Anything else is "dead", or "same-dir-tests-only" when only
// tests in its own directory use it; allow exempts names by key.
//
// A second rule covers the untagged, named fields, exported or not, of
// the named struct types declared in non-test files: some code, tests
// included, must read each one through a selector. Tagged fields are
// exempt, because encoding/json reads them. A composite-literal
// key and the left side of a plain = are writes, not reads. The fields
// of a struct used as a map key are read by every lookup. A field that
// is only grown, as in x.f = append(x.f, …) or x.f[i] = append(x.f[i],
// …), is written there, not read. Anything else is "write-only".
func unreached(t *testing.T, root string, modDirs []string, allow map[string]string) []string {
	t.Helper()
	var order []*listedPkg
	byPath := map[string]*listedPkg{}
	add := func(pkgs []*listedPkg) {
		for _, p := range pkgs {
			if byPath[p.ImportPath] == nil {
				byPath[p.ImportPath] = p
				order = append(order, p)
			}
		}
	}
	for _, dir := range modDirs {
		add(goList(t, dir, "./..."))
		// Test files may import standard packages nothing else does.
		var extra []string
		for _, p := range order {
			for _, imp := range append(append([]string(nil), p.TestImports...), p.XTestImports...) {
				if byPath[imp] == nil {
					extra = append(extra, imp)
				}
			}
		}
		if len(extra) > 0 {
			add(goList(t, dir, extra...))
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := byPath[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	imp := func(over map[string]*types.Package) types.Importer {
		return importerFunc(func(path string) (*types.Package, error) {
			if p := over[path]; p != nil {
				return p, nil
			}
			if p := checked[path]; p != nil {
				return p, nil
			}
			return std.Import(path)
		})
	}
	files := map[string]*ast.File{}
	assigned := map[*ast.SelectorExpr]bool{} // selectors on the left of a plain =
	parse := func(dir string, names []string) []*ast.File {
		var out []*ast.File
		for _, n := range names {
			path := filepath.Join(dir, n)
			f := files[path]
			if f == nil {
				var err error
				if f, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err != nil {
					t.Fatal(err)
				}
				files[path] = f
				ast.Inspect(f, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
						for i, lhs := range as.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								assigned[sel] = true
							}
							if len(as.Rhs) == len(as.Lhs) {
								if grown := selfAppend(lhs, as.Rhs[i]); grown != nil {
									assigned[grown] = true
									assigned[indexedSelector(lhs)] = true
								}
							}
						}
					}
					return true
				})
			}
			out = append(out, f)
		}
		return out
	}

	decls := map[token.Pos]*decl{}
	fields := map[token.Pos]*field{}
	var keyRead func(types.Type) // marks a map key's fields read
	keyRead = func(typ types.Type) {
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := fields[u.Field(i).Origin().Pos()]; f != nil {
					f.read = true
				}
				keyRead(u.Field(i).Type())
			}
		case *types.Array:
			keyRead(u.Elem())
		}
	}
	receivers := map[token.Pos]bool{} // idents inside method receiver types
	var inPlay []*types.Interface     // interfaces non-test code uses
	seenType := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seenType[typ] {
			return
		}
		seenType[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			collect(u.Underlying())
		case *types.Interface:
			if u.NumMethods() > 0 {
				inPlay = append(inPlay, u)
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				collect(u.Field(i).Type())
			}
		case *types.Signature:
			collect(u.Params())
			collect(u.Results())
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				collect(u.At(i).Type())
			}
		}
	}

	// record notes every use from the given files; test is whether they
	// are _test.go files.
	record := func(info *types.Info, test bool) {
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if !test {
				collect(obj.Type())
			}
			d := decls[obj.Pos()]
			if d == nil || receivers[id.Pos()] || (d.start <= id.Pos() && id.Pos() < d.end) {
				continue
			}
			at := fset.Position(id.Pos()).Filename
			if strings.HasSuffix(at, "_test.go") != test {
				continue // a test variant re-checks the non-test files
			}
			switch {
			case !test || filepath.Dir(at) != filepath.Dir(d.pos.Filename):
				d.live = true
			default:
				d.sameDir = true
			}
		}
		if !test {
			for _, tv := range info.Types {
				collect(tv.Type)
			}
		}
		for sel, s := range info.Selections {
			if s.Kind() == types.FieldVal && !assigned[sel] {
				if f := fields[s.Obj().(*types.Var).Origin().Pos()]; f != nil {
					f.read = true
				}
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				keyRead(m.Key())
			}
		}
	}
	check := func(path string, fs []*ast.File, over map[string]*types.Package, test bool) *types.Package {
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var errs []string
		conf := types.Config{Importer: imp(over), Error: func(err error) { errs = append(errs, err.Error()) }}
		pkg, _ := conf.Check(path, fset, fs, info)
		// A test variant may mix its own copy of a package with the one
		// other packages were checked against; only non-test code must
		// check cleanly.
		if !test && len(errs) > 0 {
			t.Fatalf("type-checking %s:\n%s", path, strings.Join(errs, "\n"))
		}
		if !test {
			declare(fset, pkg, fs, info, decls, receivers)
			declareFields(fset, pkg, fs, fields)
		}
		record(info, test)
		return pkg
	}

	var mods []*listedPkg
	for _, p := range order {
		if p.Module != nil {
			mods = append(mods, p)
			checked[p.ImportPath] = check(p.ImportPath, parse(p.Dir, p.GoFiles), nil, false)
		}
	}
	for _, p := range mods {
		variant := checked[p.ImportPath]
		if len(p.TestGoFiles) > 0 {
			variant = check(p.ImportPath, parse(p.Dir, append(append([]string(nil), p.GoFiles...), p.TestGoFiles...)), nil, true)
		}
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", parse(p.Dir, p.XTestGoFiles), map[string]*types.Package{p.ImportPath: variant}, true)
		}
	}

	// Interfaces the standard library calls on the values it is handed,
	// which no type in the program need name.
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	protocol := func(name string, params, results []types.Type) {
		tuple := func(ts []types.Type) *types.Tuple {
			var vs []*types.Var
			for _, typ := range ts {
				vs = append(vs, types.NewVar(token.NoPos, nil, "", typ))
			}
			return types.NewTuple(vs...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
		inPlay = append(inPlay, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete())
	}
	protocol("Unwrap", nil, []types.Type{errT})
	protocol("Unwrap", nil, []types.Type{types.NewSlice(errT)})
	protocol("Is", []types.Type{errT}, []types.Type{types.Typ[types.Bool]})
	protocol("As", []types.Type{anyT}, []types.Type{types.Typ[types.Bool]})
	collect(errT)
	for _, name := range []string{"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter", "encoding/json.Marshaler", "encoding/json.Unmarshaler", "encoding.TextMarshaler", "encoding.TextUnmarshaler"} {
		dot := strings.LastIndex(name, ".")
		if byPath[name[:dot]] == nil {
			continue
		}
		pkg, err := std.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		collect(pkg.Scope().Lookup(name[dot+1:]).Type())
	}
	byMethod := map[string][]*types.Interface{}
	for _, it := range inPlay {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}

	// A method a type in play reaches through an interface is live,
	// promoted ones included: the interface names the method, not the
	// type that declares it.
	for _, d := range decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			ms := types.NewMethodSet(typ)
			for i := 0; i < ms.Len(); i++ {
				for _, it := range byMethod[ms.At(i).Obj().Name()] {
					if !types.Implements(typ, it) {
						continue
					}
					for j := 0; j < it.NumMethods(); j++ {
						m := it.Method(j)
						obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name())
						if f, ok := obj.(*types.Func); ok && decls[f.Origin().Pos()] != nil {
							decls[f.Origin().Pos()].live = true
						}
					}
				}
			}
		}
	}

	type finding struct {
		pos  token.Position
		line string
	}
	var found []finding
	allowed := map[string]bool{}
	for _, d := range decls {
		if _, ok := allow[d.name]; ok {
			allowed[d.name] = true
			if d.live {
				found = append(found, finding{d.pos, d.name + " is allowlisted but reached; drop the entry"})
			}
			continue
		}
		if d.live {
			continue
		}
		verdict := "dead"
		if d.sameDir {
			verdict = "same-dir-tests-only"
		}
		found = append(found, finding{d.pos, d.name + " is " + verdict})
	}
	for _, f := range fields {
		if !f.read {
			found = append(found, finding{f.pos, f.name + " is write-only"})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	var out []string
	for _, f := range found {
		rel, _ := filepath.Rel(root, f.pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s", rel, f.pos.Line, f.line))
	}
	for name := range allow {
		if !allowed[name] {
			out = append(out, "allowlist entry "+name+" names no declaration")
		}
	}
	return out
}

// selfAppend returns the selector that rhs appends to when the
// assignment lhs = rhs only grows it: x.f = append(x.f, …) or
// x.f[i] = append(x.f[i], …). It returns nil otherwise.
func selfAppend(lhs, rhs ast.Expr) *ast.SelectorExpr {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return nil
	}
	if indexedSelector(lhs) == nil || types.ExprString(ast.Unparen(lhs)) != types.ExprString(ast.Unparen(call.Args[0])) {
		return nil
	}
	return indexedSelector(call.Args[0])
}

// indexedSelector returns the selector e indexes into (x.f for x.f[i]),
// or e itself when it is a selector; nil otherwise.
func indexedSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok {
			break
		}
		e = ix.X
	}
	sel, _ := ast.Unparen(e).(*ast.SelectorExpr)
	return sel
}

// field is one struct field under the write-only rule.
type field struct {
	name string // import path, enclosing type and field: "predabs/internal/bebop.procInfo.reach"
	pos  token.Position
	read bool
}

// declareFields adds the untagged, named fields of every named struct
// type in one package's non-test files, function-local types included,
// to fields, keyed by the field name's position.
func declareFields(fset *token.FileSet, pkg *types.Package, files []*ast.File, fields map[token.Pos]*field) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fd := range st.Fields.List {
					for _, id := range fd.Names {
						if fd.Tag == nil && id.Name != "_" {
							fields[id.Pos()] = &field{name: pkg.Path() + "." + ts.Name.Name + "." + id.Name, pos: fset.Position(id.Pos())}
						}
					}
				}
			}
			return true
		})
	}
}

// declare adds the top-level declarations of one package's non-test
// files to decls, and the identifiers of its method receivers to
// receivers: a method naming its own type does not make the type live.
func declare(fset *token.FileSet, pkg *types.Package, files []*ast.File, info *types.Info, decls map[token.Pos]*decl, receivers map[token.Pos]bool) {
	add := func(id *ast.Ident, node ast.Node, recv string) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		decls[obj.Pos()] = &decl{name: pkg.Path() + "." + recv + id.Name, obj: obj, pos: fset.Position(id.Pos()), start: node.Pos(), end: node.End()}
	}
	for _, f := range files {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				if gd.Recv == nil {
					if gd.Name.Name != "init" && !(gd.Name.Name == "main" && pkg.Name() == "main") {
						add(gd.Name, gd, "")
					}
					continue
				}
				ast.Inspect(gd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id.Pos()] = true
					}
					return true
				})
				recv := info.Defs[gd.Name].Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				add(gd.Name, gd, recv.(*types.Named).Obj().Name()+".")
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s, "")
						}
					}
				}
			}
		}
	}
}
