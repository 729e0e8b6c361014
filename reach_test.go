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
	"sort"
	"testing"
)

// reachExempt is every exported function or method that may stay
// without a non-test reference. A key is an import path (the whole
// package), "path.Func" or "path.Type.Method"; the value names the
// entry's category. Nothing else belongs here: code that only tests
// reach is deleted, or moved into its package's export_test.go.
var reachExempt = map[string]string{
	// The public facade: README's library API, used by callers outside
	// this repository.
	"qlec": "public API",

	// Packages kept whole until their ROADMAP items decide their fate.
	"qlec/internal/analysis": "waits on ROADMAP item 7",
	"qlec/internal/eecp":     "waits on ROADMAP item 13",

	// Fixed points: the tests that pin the reproduction call these.
	"qlec/internal/kmeans.OptimalCost":            "fixed point: Lloyd cost oracle of the k-means tests",
	"qlec/internal/cluster.CheckConformance":      "fixed point: the protocol conformance suite",
	"qlec/internal/obs.LintExposition":            "fixed point: /metrics exposition lint of the service and fleet tests",
	"qlec/internal/qlearn.Learner.Converged":      "fixed point: Theorem 3 convergence tests",
	"qlec/internal/qlearn.Learner.Updates":        "fixed point: Theorem 3 convergence tests",
	"qlec/internal/service/client.Client.Health":  "fixed point: client API of the service tests",
	"qlec/internal/service/client.Client.BaseURL": "fixed point: client API of the service tests",
	"qlec/internal/experiment.Config.Hash":        "fixed point: TestHashGolden pins CanonicalJSON through it",

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
// and of bench/ and fails on an exported function or method that no
// non-test file references outside its own declaration. A method that
// matches, by name and signature, a method of an interface the program
// uses (declared or imported, named or literal) counts as reached.
func TestNoTestOnlyExports(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not found")
	}
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
	var uses []map[*ast.Ident]types.Object

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
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				dc := decl{fn, fd.Pos(), fd.End()}
				decls = append(decls, dc)
				declOf[fn] = dc
			}
		}
		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		uses = append(uses, info.Uses)
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
	for _, pkg := range checked {
		walk(pkg)
	}
	ifaceMethods := map[string][]*types.Signature{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifaceMethods[m.Name()] = append(ifaceMethods[m.Name()], m.Type().(*types.Signature))
		}
	}

	for _, u := range uses {
		for id, obj := range u {
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

	var found []string
	reached := map[string]bool{}
	for _, d := range decls {
		key := declKey(d.fn)
		reached[key] = used[d.fn] || implements(d.fn)
		_, exempt := reachExempt[key]
		_, exemptPkg := reachExempt[d.fn.Pkg().Path()]
		if reached[key] || exempt || exemptPkg {
			continue
		}
		found = append(found, fset.Position(d.pos).String()+": "+key)
	}
	sort.Strings(found)
	t.Logf("%d exported functions and methods, %d without a non-test reference", len(decls), len(found))
	for _, f := range found {
		t.Errorf("only tests reach %s", f)
	}
	// A stale entry would let its name come back unnoticed.
	for k := range reachExempt {
		r, isDecl := reached[k]
		switch {
		case checked[k] != nil:
		case !isDecl:
			t.Errorf("reachExempt names %s, which is not an exported function or method", k)
		case r:
			t.Errorf("reachExempt names %s, which a non-test file now references", k)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
