package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTestModule lays out a four-package module on disk: app -> lib ->
// base, with app and a sibling util both importing lib.
func writeTestModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"base/base.go": `package base

func Origin() string { return "base" }
`,
		"lib/lib.go": `package lib

import "demo/base"

func One() int { return len(base.Origin()) }

func Two() int { return 2 }
`,
		"app/app.go": `package app

import "demo/lib"

func Main() int { return lib.One() + lib.Two() }
`,
		"util/util.go": `package util

import "demo/lib"

func Helper() int { return lib.Two() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// funcCountFact records how many functions a package declares.
type funcCountFact struct {
	Count int `json:"count"`
}

func (*funcCountFact) AFact() {}

// newCountAnalyzer returns an analyzer that reports one diagnostic per
// function declaration and exports the count as a package fact, summing in
// the facts of module-internal dependencies. When ran is not nil, each
// analyzed package's import path is appended to it.
func newCountAnalyzer(ran *[]string) *Analyzer {
	a := &Analyzer{
		Name:      "funccount",
		Doc:       "test analyzer: counts function declarations",
		FactTypes: []Fact{(*funcCountFact)(nil)},
	}
	a.Run = func(pass *Pass) []Diagnostic {
		if ran != nil {
			*ran = append(*ran, pass.Pkg.Path())
		}
		total := 0
		for _, imp := range pass.Pkg.Imports() {
			var f funcCountFact
			if pass.ImportPackageFact(imp.Path(), &f) {
				total += f.Count
			}
		}
		count := 0
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				count++
				pass.Reportf(fn.Pos(), "func %s (%d reachable before this package)", fn.Name.Name, total)
			}
		}
		if err := pass.ExportPackageFact(&funcCountFact{Count: count + total}); err != nil {
			pass.Reportf(pass.Files[0].Pos(), "export failed: %v", err)
		}
		return pass.Diagnostics()
	}
	return a
}

func diagStrings(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func TestRunReportsRootsOnly(t *testing.T) {
	mod := writeTestModule(t)
	loader, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := loader.Load("./app")
	if err != nil {
		t.Fatal(err)
	}
	deps := loader.Deps(roots)
	var got []string
	for _, p := range deps {
		got = append(got, p.ImportPath)
	}
	if want := []string{"demo/base", "demo/lib"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Deps(./app) = %v, want %v", got, want)
	}

	// lib and base are analyzed for their facts, dependencies first, but
	// only app reports.
	var ran []string
	diags := Run([]*Analyzer{newCountAnalyzer(&ran)}, roots, deps)
	if want := []string{"demo/base", "demo/lib", "demo/app"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("analyzed %v, want %v", ran, want)
	}
	for _, d := range diags {
		if filepath.Base(filepath.Dir(d.Pos.Filename)) != "app" {
			t.Fatalf("non-root diagnostic leaked: %s", d)
		}
	}
	found := false
	for _, d := range diags {
		if d.Message == "func Main (3 reachable before this package)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dependency facts missing in root-only run; got %v", diagStrings(diags))
	}
}

func TestTopoOrderPutsDependenciesFirst(t *testing.T) {
	mod := writeTestModule(t)
	loader, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	order := topoOrder(pkgs)
	if len(order) != len(pkgs) {
		t.Fatalf("topoOrder dropped packages: got %d, want %d", len(order), len(pkgs))
	}
	pos := map[string]int{}
	for i, p := range order {
		pos[p.ImportPath] = i
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if j, ok := pos[imp.Path()]; ok && j > pos[p.ImportPath] {
				t.Fatalf("%s scheduled before its dependency %s", p.ImportPath, imp.Path())
			}
		}
	}
}
