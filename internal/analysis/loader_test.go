package analysis

import (
	"errors"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadModulePackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModPath != "nvbench" {
		t.Fatalf("ModPath = %q, want nvbench", l.ModPath)
	}
	pkgs, err := l.Load("./internal/ast")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "nvbench/internal/ast" {
		t.Fatalf("Load returned %+v", pkgs)
	}
	pkg := pkgs[0]
	obj := pkg.Types.Scope().Lookup("ChartType")
	if obj == nil {
		t.Fatal("internal/ast.ChartType not found in type-checked package")
	}
	if _, ok := obj.Type().(*types.Named); !ok {
		t.Fatalf("ChartType is %T, want *types.Named", obj.Type())
	}
	if len(pkg.Files) == 0 || len(pkg.Info.Defs) == 0 {
		t.Fatal("package missing files or type info")
	}
}

func TestLoadPatternSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/analysis/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.ImportPath, "testdata") {
			t.Errorf("pattern expansion descended into testdata: %s", p.ImportPath)
		}
	}
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].ImportPath >= pkgs[i].ImportPath {
			t.Errorf("packages not sorted: %s before %s", pkgs[i-1].ImportPath, pkgs[i].ImportPath)
		}
	}
}

// TestLoadPatternSkipsNestedModules builds a module holding a nested
// module and checks "./..." stops at the nested go.mod, as go vet does.
func TestLoadPatternSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"go.mod":            "module example.com/outer\n",
		"a/a.go":            "package a\n",
		"inner/go.mod":      "module example.com/inner\n",
		"inner/b/b.go":      "package b\n",
		"inner/c.go":        "package inner\n",
		"deep/x/go.mod":     "module example.com/x\n",
		"deep/x/x.go":       "package x\n",
		"deep/kept/kept.go": "package kept\n",
	} {
		full := filepath.Join(root, path)
		if err := errors.Join(os.MkdirAll(filepath.Dir(full), 0o755), os.WriteFile(full, []byte(body), 0o644)); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	if want := "example.com/outer/a example.com/outer/deep/kept"; strings.Join(got, " ") != want {
		t.Fatalf("./... matched %v, want %s", got, want)
	}
}

func TestLoadStdlibDependency(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// internal/render imports fmt, strings, etc. — all must resolve from
	// GOROOT source without compiled export data.
	pkgs, err := l.Load("./internal/render")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, imp := range pkgs[0].Types.Imports() {
		if imp.Path() == "fmt" {
			found = true
		}
	}
	if !found {
		t.Fatal("render package did not import fmt")
	}
}

func TestSortDiagnostics(t *testing.T) {
	ds := []Diagnostic{
		{Analyzer: "b", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "z", Pos: token.Position{Filename: "a.go", Line: 1}},
	}
	SortDiagnostics(ds)
	if ds[0].Analyzer != "z" || ds[1].Analyzer != "a" || ds[2].Analyzer != "b" {
		t.Fatalf("bad order: %+v", ds)
	}
}
