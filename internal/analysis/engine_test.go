package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// writeTestModule lays out a three-package module on disk for engine tests:
// app -> lib -> base, with app and a sibling util both importing lib.
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
// the facts of module-internal dependencies. runs counts Run invocations so
// tests can prove cache hits skip execution.
func newCountAnalyzer(runs *atomic.Int64) *Analyzer {
	a := &Analyzer{
		Name:      "funccount",
		Version:   "1",
		Doc:       "test analyzer: counts function declarations",
		FactTypes: []Fact{(*funcCountFact)(nil)},
	}
	a.Run = func(pass *Pass) []Diagnostic {
		if runs != nil {
			runs.Add(1)
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

func newEngine(t *testing.T, modDir, cacheDir string, runs *atomic.Int64) *Engine {
	t.Helper()
	loader, err := NewLoader(modDir)
	if err != nil {
		t.Fatal(err)
	}
	var cache *Cache
	if cacheDir != "" {
		cache, err = NewCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
	}
	return &Engine{Loader: loader, Analyzers: []*Analyzer{newCountAnalyzer(runs)}, Cache: cache, Workers: 4}
}

func diagStrings(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func TestEngineColdThenWarm(t *testing.T) {
	mod := writeTestModule(t)
	cacheDir := filepath.Join(mod, ".cache")

	var coldRuns atomic.Int64
	cold := newEngine(t, mod, cacheDir, &coldRuns)
	coldDiags, coldStats, err := cold.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Packages != 4 || coldStats.Roots != 4 {
		t.Fatalf("cold stats = %+v, want 4 packages, 4 roots", coldStats)
	}
	if coldStats.CacheMisses != 4 || coldStats.CacheHits != 0 {
		t.Fatalf("cold stats = %+v, want 4 misses, 0 hits", coldStats)
	}
	if coldStats.Loaded != 4 {
		t.Fatalf("cold loaded %d packages, want 4", coldStats.Loaded)
	}
	if got := coldRuns.Load(); got != 4 {
		t.Fatalf("cold analyzer ran %d times, want 4", got)
	}
	if len(coldDiags) == 0 {
		t.Fatal("cold run produced no diagnostics")
	}

	var warmRuns atomic.Int64
	warm := newEngine(t, mod, cacheDir, &warmRuns)
	warmDiags, warmStats, err := warm.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.CacheHits != 4 || warmStats.CacheMisses != 0 {
		t.Fatalf("warm stats = %+v, want 4 hits, 0 misses", warmStats)
	}
	if warmStats.Loaded != 0 {
		t.Fatalf("warm run loaded %d packages, want 0 (fully cached)", warmStats.Loaded)
	}
	if got := warmRuns.Load(); got != 0 {
		t.Fatalf("warm analyzer ran %d times, want 0", got)
	}
	if !reflect.DeepEqual(diagStrings(coldDiags), diagStrings(warmDiags)) {
		t.Fatalf("warm diagnostics differ from cold:\ncold: %v\nwarm: %v", diagStrings(coldDiags), diagStrings(warmDiags))
	}
}

func TestEngineFactsFlowThroughCache(t *testing.T) {
	mod := writeTestModule(t)
	cacheDir := filepath.Join(mod, ".cache")

	cold := newEngine(t, mod, cacheDir, nil)
	coldDiags, _, err := cold.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	// app's diagnostics must see the fact chain base(1) + lib(2) = 3.
	found := false
	for _, d := range coldDiags {
		if d.Message == "func Main (3 reachable before this package)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fact-dependent diagnostic missing; got %v", diagStrings(coldDiags))
	}

	// Edit app only: lib and base replay from cache, and their cached facts
	// must still reach the re-analyzed app.
	appPath := filepath.Join(mod, "app", "app.go")
	src, err := os.ReadFile(appPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(appPath, append(src, "\nfunc Extra() int { return 0 }\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := newEngine(t, mod, cacheDir, nil)
	warmDiags, stats, err := warm.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 3 || stats.CacheMisses != 1 {
		t.Fatalf("stats after app edit = %+v, want 3 hits, 1 miss", stats)
	}
	found = false
	for _, d := range warmDiags {
		if d.Message == "func Main (3 reachable before this package)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cached facts did not reach re-analyzed importer; got %v", diagStrings(warmDiags))
	}
}

func TestEngineEditInvalidatesImporters(t *testing.T) {
	mod := writeTestModule(t)
	cacheDir := filepath.Join(mod, ".cache")

	cold := newEngine(t, mod, cacheDir, nil)
	if _, _, err := cold.Run("./..."); err != nil {
		t.Fatal(err)
	}

	// Editing lib must invalidate lib and both importers (app, util) via the
	// dependency-key recursion, while base stays cached.
	libPath := filepath.Join(mod, "lib", "lib.go")
	src, err := os.ReadFile(libPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(libPath, append(src, "\nfunc Three() int { return 3 }\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := newEngine(t, mod, cacheDir, nil)
	diags, stats, err := warm.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 3 {
		t.Fatalf("stats after lib edit = %+v, want 1 hit (base), 3 misses (lib, app, util)", stats)
	}
	found := false
	for _, d := range diags {
		// lib's fact is now 3 own funcs + 1 inherited from base = 4.
		if d.Message == "func Main (4 reachable before this package)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("importer did not observe updated dependency fact; got %v", diagStrings(diags))
	}
}

func TestEngineCorruptionDegradesToMiss(t *testing.T) {
	mod := writeTestModule(t)
	cacheDir := filepath.Join(mod, ".cache")

	cold := newEngine(t, mod, cacheDir, nil)
	coldDiags, _, err := cold.Run("./...")
	if err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("expected cache entries, got %v (err %v)", entries, err)
	}
	// Flip a byte in one entry, truncate another, and empty a third when
	// available: every corruption mode must read as a miss.
	for i, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			data[len(data)/2] ^= 0x40
		case 1:
			data = data[:len(data)/2]
		case 2:
			data = nil
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := newEngine(t, mod, cacheDir, nil)
	diags, stats, err := warm.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 4 {
		t.Fatalf("corrupted entries should all miss: stats = %+v", stats)
	}
	if !reflect.DeepEqual(diagStrings(coldDiags), diagStrings(diags)) {
		t.Fatalf("diagnostics after corruption differ:\ncold: %v\ngot:  %v", diagStrings(coldDiags), diagStrings(diags))
	}

	// And the rewritten entries serve the next run.
	again := newEngine(t, mod, cacheDir, nil)
	_, stats, err = again.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 0 || stats.Loaded != 0 {
		t.Fatalf("cache did not self-repair: stats = %+v", stats)
	}
}

func TestEngineReportsRootsOnly(t *testing.T) {
	mod := writeTestModule(t)

	e := newEngine(t, mod, "", nil)
	diags, stats, err := e.Run("./app")
	if err != nil {
		t.Fatal(err)
	}
	// The closure pulls in lib and base for facts, but only app reports.
	if stats.Packages != 3 || stats.Roots != 1 {
		t.Fatalf("stats = %+v, want 3 packages in closure, 1 root", stats)
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

func TestEngineMatchesSerialDriver(t *testing.T) {
	mod := writeTestModule(t)

	loader, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(diagStrings(Run([]*Analyzer{newCountAnalyzer(nil)}, pkgs)))

	for _, workers := range []int{1, 2, 8} {
		e := newEngine(t, mod, filepath.Join(mod, fmt.Sprintf(".cache-%d", workers)), nil)
		e.Workers = workers
		engineDiags, _, err := e.Run("./...")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(diagStrings(engineDiags)); got != want {
			t.Fatalf("workers=%d: engine output differs from serial driver:\nengine: %s\nserial: %s", workers, got, want)
		}
	}
}
