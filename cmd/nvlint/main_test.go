package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvbench/internal/analysis"
)

// The mini-module under testdata/srcmod seeds at least one violation per
// analyzer: a non-exhaustive enum switch, a time.Now call and a stdout
// print in fixture/internal/core, a dropped error in fixture/cmd/tool, a
// duplicate and an unregistered fault site, an unsynced rename in
// fixture/internal/store, an unregistered histogram and a non-canonical
// metric name for obslabel, and a blocking call under a lock plus an
// unpaired unlock in fixture/internal/server.

func TestDriverFindsSeededViolations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata/srcmod", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"cmd/tool/main.go:16:2: unhandled error returned by save (errdrop)",
		"internal/core/core.go:15:2: switch over ast.Kind is not exhaustive: missing KindPie (add the cases or a default) (exhaustive)",
		"internal/core/core.go:26:9: call to time.Now in deterministic package core; inject the timestamp from the caller (detrand)",
		"internal/core/core.go:31:2: fmt.Println prints to os.Stdout from internal package core; write to an injected io.Writer (noprint)",
		`internal/fault/fault.go:9:2: duplicate fault site "store.save": already declared as SiteSave (faultsite)`,
		"internal/obs/obs.go:8:2: histogram constant SaveSeconds (fixture_save_seconds) is not pre-registered in RegisterBase; scrapes before traffic will miss its schema (obslabel)",
		`internal/pipeline/pipeline.go:9:9: fault.Inject site "render.table" is not registered in fixture/internal/fault (known sites: store.load, store.save) (faultsite)`,
		"internal/server/locks.go:21:2: blocking call while holding h.mu; release the lock before blocking or move the call out of the critical section (lockcheck)",
		"internal/server/locks.go:28:2: h.mu.Unlock without a matching Lock in the same function; acquire and release must stay in one scope (lockcheck)",
		`internal/server/locks.go:34:15: metric name "Request-Count" is not canonical lowercase_underscore; use "request_count" (obslabel)`,
		"internal/store/save.go:9:9: os.Rename in Promote without a directory sync after it; call syncDir on the destination's parent to make the rename durable (fsyncorder)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q\ngot:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "11 finding(s)") {
		t.Errorf("stderr missing summary, got: %s", stderr.String())
	}
}

func TestDriverJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata/srcmod", "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(diags) != 11 {
		t.Fatalf("got %d findings, want 11: %+v", len(diags), diags)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
	want := map[string]int{
		"detrand": 1, "errdrop": 1, "exhaustive": 1, "faultsite": 2,
		"fsyncorder": 1, "lockcheck": 2, "noprint": 1, "obslabel": 2,
	}
	for name, n := range want {
		if byAnalyzer[name] != n {
			t.Errorf("analyzer %s reported %d findings, want %d", name, byAnalyzer[name], n)
		}
	}
}

func TestDriverDisableFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata/srcmod", "-errdrop=false", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "errdrop") {
		t.Errorf("disabled analyzer still reported:\n%s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		"-C", "testdata/srcmod",
		"-detrand=false", "-errdrop=false", "-exhaustive=false", "-faultsite=false",
		"-fsyncorder=false", "-lockcheck=false", "-noprint=false", "-obslabel=false",
		"./...",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("all analyzers disabled: exit code = %d, want 0; stdout: %s", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected empty output, got: %s", stdout.String())
	}
}

func TestDriverSelectsPackages(t *testing.T) {
	// A pattern reports findings for the packages it matches only; the
	// module packages they import are analyzed for their facts but not
	// reported. ./internal/pipeline's known-site list names each value of
	// internal/fault's registry once, although the registry declares
	// store.save twice.
	for _, c := range []struct{ pattern, want string }{
		{"./cmd/...", "cmd/tool/main.go:16:2: unhandled error returned by save (errdrop)\n"},
		{"./internal/pipeline", `internal/pipeline/pipeline.go:9:9: fault.Inject site "render.table" is not registered in fixture/internal/fault (known sites: store.load, store.save) (faultsite)` + "\n"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-C", "testdata/srcmod", c.pattern}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("%s: exit code = %d, want 1; stderr: %s", c.pattern, code, stderr.String())
		}
		if got := stdout.String(); got != c.want {
			t.Errorf("%s: findings =\n%s\nwant\n%s", c.pattern, got, c.want)
		}
		if got, want := stderr.String(), "nvlint: 1 finding(s) in 1 package(s)\n"; got != want {
			t.Errorf("%s: stderr = %q, want %q", c.pattern, got, want)
		}
	}
}

// probeFact is the empty fact factProbe exports on every package.
type probeFact struct{}

func (*probeFact) AFact() {}

// factProbe reports, once per package, which of its imports exported a
// probeFact before it ran.
var factProbe = &analysis.Analyzer{
	Name:      "factprobe",
	Doc:       "test analyzer: lists the imports whose facts are visible",
	FactTypes: []analysis.Fact{(*probeFact)(nil)},
	Run: func(pass *analysis.Pass) []analysis.Diagnostic {
		var from []string
		for _, imp := range pass.Pkg.Imports() {
			if pass.ImportPackageFact(imp.Path(), &probeFact{}) {
				from = append(from, imp.Path())
			}
		}
		pass.Reportf(pass.Files[0].Package, "facts from [%s]", strings.Join(from, " "))
		if err := pass.ExportPackageFact(&probeFact{}); err != nil {
			pass.Reportf(pass.Files[0].Package, "export: %v", err)
		}
		return pass.Diagnostics()
	},
}

func TestDriverAnalyzesImportsForFacts(t *testing.T) {
	// The matched package sees the fact of the module package it
	// imports, which reports nothing itself.
	saved := all
	t.Cleanup(func() { all = saved })
	all = []*analysis.Analyzer{factProbe}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "testdata/srcmod", "./internal/pipeline"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if got, want := stdout.String(), "internal/pipeline/pipeline.go:3:1: facts from [fixture/internal/fault] (factprobe)\n"; got != want {
		t.Errorf("findings =\n%s\nwant\n%s", got, want)
	}
}

func TestDriverBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "testdata/srcmod", "./no-such-dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad pattern: exit code = %d, want 2", code)
	}
	if code := run([]string{"-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit code = %d, want 2", code)
	}
	if code := run([]string{"-C", "/", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("no module: exit code = %d, want 2", code)
	}
}

// copySrcmod clones the fixture module into a temp dir so -fix can rewrite
// it without touching the checked-in testdata.
func copySrcmod(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir("testdata/srcmod", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel("testdata/srcmod", path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestDriverFixRewritesAndConverges(t *testing.T) {
	mod := copySrcmod(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", mod, "-fix", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "applied 1 fix(es) to 1 file(s)") {
		t.Fatalf("missing fix summary, got: %s", stderr.String())
	}
	fixed, err := os.ReadFile(filepath.Join(mod, "internal/server/locks.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), `obs.L("request_count", "route", "home")`) {
		t.Errorf("fix not applied:\n%s", fixed)
	}
	// A second run finds one violation fewer and nothing left to fix.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", mod, "-fix", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("second run exit code = %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "request_count") || strings.Contains(stderr.String(), "applied") {
		t.Errorf("fix did not converge:\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "10 finding(s)") {
		t.Errorf("expected 10 findings after fix, got: %s", stderr.String())
	}
}
