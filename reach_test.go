package qlec

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachExempt is everything that may stay without a non-test reader. A
// key is an import path (the whole package), "path.Name" (a
// package-level function, type, constant or variable),
// "path.Type.Method", or "path.Type.Field" (a struct field; a field of
// a nested anonymous struct adds its own name, and a struct declared
// inside a function takes the function's name in place of the type's).
// The value names the entry's reason. Nothing else belongs here: what
// only tests reach is deleted, or moved into its package's
// export_test.go.
var reachExempt = map[string]string{
	// Packages kept whole until their ROADMAP items decide their fate.
	"qlec/internal/analysis": "waits on ROADMAP item 13(b)",
	"qlec/internal/eecp":     "waits on ROADMAP item 7",

	// Fixed points: the tests that pin the reproduction call these.
	"qlec/internal/kmeans.OptimalCost":            "fixed point: Lloyd cost oracle of the k-means tests",
	"qlec/internal/cluster.CheckConformance":      "fixed point: the protocol conformance suite",
	"qlec/internal/obs.LintExposition":            "fixed point: /metrics exposition lint of the service and fleet tests",
	"qlec/internal/qlearn.Learner.Converged":      "fixed point: Theorem 3 convergence tests",
	"qlec/internal/qlearn.Learner.Updates":        "fixed point: Theorem 3 convergence tests",
	"qlec/internal/service/client.Client.Health":  "fixed point: client API of the service tests",
	"qlec/internal/service/client.Client.BaseURL": "fixed point: client API of the service tests",
	"qlec/internal/experiment.Config.Hash":        "fixed point: TestHashGolden pins CanonicalJSON through it",

	// Test pins: the candidate-list path counters that
	// TestListSeedsReachPaths and the epoch tests read.
	"qlec/internal/qlearn.listStats.fallback": "test pin: candidate-list path counter",
	"qlec/internal/qlearn.listStats.falling":  "test pin: candidate-list path counter",
	"qlec/internal/qlearn.listStats.observed": "test pin: candidate-list path counter",
	"qlec/internal/qlearn.listStats.raised":   "test pin: candidate-list path counter",
	"qlec/internal/qlearn.listStats.settled":  "test pin: candidate-list path counter",
	"qlec/internal/qlearn.listStats.ended":    "test pin: candidate-list path counter",

	// Inert options that bench/daemon.go still sets; they go with the
	// bench/ change of ROADMAP item 1.
	"qlec/internal/service.Options.AuditHistory":          "inert, set by bench/daemon.go (ROADMAP item 1)",
	"qlec/internal/service.Options.ProfileHistory":        "inert, set by bench/daemon.go (ROADMAP item 1)",
	"qlec/internal/service.Options.RuntimeSampleInterval": "inert, set by bench/daemon.go (ROADMAP item 1)",
	"qlec/internal/service.Options.AutoProfileMinGap":     "inert, set by bench/daemon.go (ROADMAP item 1)",

	// Cross-package test seams: tests in the packages named need them,
	// and no production function serves them.
	"qlec/internal/service/client.WithRetries": "seam: internal/service tests turn retries off",
	"qlec/internal/service/client.WithBackoff": "seam: internal/service tests turn retries off",
	"qlec/internal/geom.AABB.SampleUniformN":   "seam: random point sets for the tests of qlec, dataset, eecp, fcm, geom, kmeans, mobility and stats",
	"qlec/internal/obs.Exposition.Family":      "seam: /metrics lookups in the tests of obs, prof and service",
	"qlec/internal/obs.Sample.Label":           "seam: /metrics lookups in the tests of obs, prof and service",
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// goListDeps runs `go list -deps -export -json pattern` in dir.
func goListDeps(t *testing.T, dir, pattern string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// checkedPkg is one type-checked package of the module or of bench/.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	// own is set for the module's packages; bench/ only reads them.
	own bool
}

// loadProgram type-checks every non-test file of the module and of
// bench/, importing the standard library from its export data.
func loadProgram(t *testing.T) (*token.FileSet, []checkedPkg) {
	pkgs := goListDeps(t, ".", "./...")
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.ImportPath] = true
	}
	for _, p := range goListDeps(t, "bench", ".") {
		if !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			pkgs = append(pkgs, p)
		}
	}

	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	var out []checkedPkg
	for _, p := range pkgs {
		if p.Standard || p.Module == nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		out = append(out, checkedPkg{pkg, files, info, p.Module.Path == "qlec"})
	}
	return fset, out
}

// declKey names a package-level function or a method the way
// reachExempt does.
func declKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// TestNoTestOnlyExports type-checks every non-test file of the module
// and of bench/ and fails on what no non-test file reads:
//
//   - an exported function or method that no non-test file references
//     outside its own declaration. A method that matches, by name and
//     signature, a method of an interface the program uses (declared or
//     imported, named or literal) counts as reached. bench/'s own
//     functions are checked too.
//   - a struct field of the module that no non-test file reads through
//     a selector. Composite-literal keys, assignment targets and
//     `++`/`--` are writes. A field with a json tag counts as read, and
//     so does every field of a struct type that is passed to
//     encoding/json or fmt, and of the struct types it holds.
//   - an exported package-level type, constant or variable of the
//     module that no non-test file references outside its own
//     declaration and, for a type, its methods' receivers.
//
// bench/ counts as a reader of the module, as the command and example
// programs do.
func TestNoTestOnlyExports(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not found")
	}
	fset, pkgs := loadProgram(t)
	reached := map[string]bool{}
	var found []string
	report := func(pkg *types.Package, pos token.Pos, key, what string) {
		_, exempt := reachExempt[key]
		_, exemptPkg := reachExempt[pkg.Path()]
		if !reached[key] && !exempt && !exemptPkg {
			found = append(found, fset.Position(pos).String()+": "+what+" "+key)
		}
	}

	nFuncs := funcPass(pkgs, reached, report)
	nFields := fieldPass(pkgs, reached, report)
	nNames := namePass(pkgs, reached, report)

	sort.Strings(found)
	t.Logf("%d exported functions and methods, %d struct fields, %d exported types, constants and variables; %d without a non-test reader",
		nFuncs, nFields, nNames, len(found))
	for _, f := range found {
		t.Error(f)
	}
	// A stale entry would let its name come back unnoticed.
	isPkg := map[string]bool{}
	for _, p := range pkgs {
		isPkg[p.pkg.Path()] = true
	}
	for k := range reachExempt {
		r, declared := reached[k]
		switch {
		case isPkg[k]:
		case !declared:
			t.Errorf("reachExempt names %s, which is neither a package nor a declaration the scan checks", k)
		case r:
			t.Errorf("reachExempt names %s, which a non-test file now reads", k)
		}
	}
}

// funcPass checks exported functions and methods. It records each one
// in reached and reports those without a reference.
func funcPass(pkgs []checkedPkg, reached map[string]bool, report func(*types.Package, token.Pos, string, string)) int {
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	var decls []decl
	declOf := map[*types.Func]decl{}
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				dc := decl{fn, fd.Pos(), fd.End()}
				decls = append(decls, dc)
				declOf[fn] = dc
			}
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}

	// Interfaces the program can see: its own (above) and every named
	// interface of every package it imports, down to the standard
	// library's (fmt.Stringer, json.Marshaler, http.Flusher, ...).
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range pkg.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
	}
	ifaceMethods := map[string][]*types.Signature{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifaceMethods[m.Name()] = append(ifaceMethods[m.Name()], m.Type().(*types.Signature))
		}
	}

	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := declOf[fn]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
				continue
			}
			used[fn] = true
		}
	}

	implements := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return false
		}
		for _, s := range ifaceMethods[fn.Name()] {
			if types.Identical(s, sig) {
				return true
			}
		}
		return false
	}

	for _, d := range decls {
		key := declKey(d.fn)
		reached[key] = used[d.fn] || implements(d.fn)
		report(d.fn.Pkg(), d.pos, key, "only tests reach")
	}
	return len(decls)
}

// fieldPass checks every struct field the module declares, embedded
// fields aside. Fields are matched by key, so that two spellings of one
// anonymous struct type count as one.
func fieldPass(pkgs []checkedPkg, reached map[string]bool, report func(*types.Package, token.Pos, string, string)) int {
	keyOf := map[*types.Var]string{}
	type field struct {
		pkg *types.Package
		key string
		pos token.Pos
	}
	var fields []field
	for _, p := range pkgs {
		if !p.own {
			continue
		}
		prefix := p.pkg.Path()
		var structs func(n ast.Node, name string)
		structs = func(n ast.Node, name string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					structs(n.Type, name+"."+n.Name.Name)
					return false
				case *ast.StructType:
					for _, f := range n.Fields.List {
						var tag string
						if f.Tag != nil {
							tag = reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json")
						}
						for _, id := range f.Names {
							key := name + "." + id.Name
							keyOf[p.info.Defs[id].(*types.Var)] = key
							if _, dup := reached[key]; !dup {
								fields = append(fields, field{p.pkg, key, id.Pos()})
							}
							reached[key] = reached[key] || tag != "" && tag != "-"
						}
						structs(f.Type, name+"."+fieldName(f))
					}
					return false
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						name = recvName(d.Recv.List[0].Type) + "." + name
					}
					structs(d, prefix+"."+name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							structs(s.Type, prefix+"."+s.Name.Name)
						case *ast.ValueSpec:
							structs(s, prefix+"."+s.Names[0].Name)
						}
					}
				}
			}
		}
	}

	read := func(v *types.Var) {
		if key, ok := keyOf[v.Origin()]; ok {
			reached[key] = true
		}
	}
	// Everything encoding/json or fmt can see of a value: the fields of
	// its struct types, through pointers, containers and nested fields.
	seen := map[types.Type]bool{}
	var reflected func(types.Type)
	reflected = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			reflected(u.Elem())
		case *types.Slice:
			reflected(u.Elem())
		case *types.Array:
			reflected(u.Elem())
		case *types.Map:
			reflected(u.Key())
			reflected(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read(u.Field(i))
				reflected(u.Field(i).Type())
			}
		}
	}

	for _, p := range pkgs {
		for _, f := range p.files {
			writes := map[*ast.SelectorExpr]bool{}
			target := func(e ast.Expr) {
				if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					writes[s] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.CallExpr:
					fn, ok := callee(p.info, n).(*types.Func)
					if ok && fn.Pkg() != nil && (fn.Pkg().Path() == "encoding/json" || fn.Pkg().Path() == "fmt") {
						for _, a := range n.Args {
							if tv, ok := p.info.Types[a]; ok {
								reflected(tv.Type)
							}
						}
					}
				case *ast.SelectorExpr:
					if sel := p.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !writes[n] {
						read(sel.Obj().(*types.Var))
					}
				}
				return true
			})
		}
	}

	for _, f := range fields {
		report(f.pkg, f.pos, f.key, "no non-test file reads field")
	}
	return len(fields)
}

// callee returns the function or method a call names, or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// fieldName is the name a nested anonymous struct's fields are keyed
// under: the field's first name, or its type's for an embedded field.
func fieldName(f *ast.Field) string {
	if len(f.Names) > 0 {
		return f.Names[0].Name
	}
	return recvName(f.Type)
}

// recvName is the type name in a receiver or embedded-field
// expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// namePass checks the module's exported package-level types,
// constants and variables.
func namePass(pkgs []checkedPkg, reached map[string]bool, report func(*types.Package, token.Pos, string, string)) int {
	type span struct{ pos, end token.Pos }
	type name struct {
		obj   types.Object
		key   string
		spans []span
	}
	var names []*name
	byObj := map[types.Object]*name{}
	for _, p := range pkgs {
		if !p.own {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					var ids []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					}
					for _, id := range ids {
						if !id.IsExported() {
							continue
						}
						n := &name{obj: p.info.Defs[id], key: p.pkg.Path() + "." + id.Name, spans: []span{{s.Pos(), s.End()}}}
						names = append(names, n)
						byObj[n.obj] = n
						reached[n.key] = false
					}
				}
			}
		}
		// A type's own receivers do not reach it.
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					r := fd.Recv.List[0].Type
					if n := byObj[p.pkg.Scope().Lookup(recvName(r))]; n != nil {
						n.spans = append(n.spans, span{r.Pos(), r.End()})
					}
				}
			}
		}
	}

	for _, p := range pkgs {
	uses:
		for id, obj := range p.info.Uses {
			n := byObj[obj]
			if n == nil {
				continue
			}
			for _, s := range n.spans {
				if id.Pos() >= s.pos && id.Pos() < s.end {
					continue uses
				}
			}
			reached[n.key] = true
		}
	}

	for _, n := range names {
		report(n.obj.Pkg(), n.obj.Pos(), n.key, "no non-test file references")
	}
	return len(names)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
