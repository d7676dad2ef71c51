// Package analysistest runs an Analyzer over a fixture package and checks
// its diagnostics against expectations embedded in the fixture source, in
// the style of golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a comment of the form
//
//	// want "regexp"
//
// placed on the line where a diagnostic is expected. Several expectations
// may share one comment: // want "first" "second". Every diagnostic must
// match exactly one expectation on its line and every expectation must be
// matched by exactly one diagnostic, so both missed findings and
// regressions (extra findings) fail the test.
package analysistest

import (
	"bytes"
	"go/ast"
	"go/format"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nvbench/internal/analysis"
)

// Loaders are shared across every Run/RunModule call in a test binary, keyed
// by (module dir, module path). Type-checking a fixture pulls large parts of
// the standard library through the source loader; reusing one loader per
// fixture module means that work happens once per test binary instead of
// once per subtest.
var (
	loaderMu sync.Mutex
	loaders  = map[string]*analysis.Loader{}
)

// loadFixture returns the cached, type-checked fixture package in dir under
// importPath, creating the (modDir, modPath) loader on first use.
func loadFixture(t *testing.T, modDir, modPath, dir, importPath string) *analysis.Package {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()
	key := modDir + "\x00" + modPath
	loader, ok := loaders[key]
	if !ok {
		loader = analysis.NewAdHocLoader(modDir, modPath)
		loaders[key] = loader
	}
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// wantRe matches one quoted expectation; the payload is a Go-quoted string
// (interpreted or raw/backquoted) holding a regular expression.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the single fixture package in dir under importPath, applies the
// analyzer, and reports any mismatch between diagnostics and // want
// expectations as test errors. It returns the diagnostics for additional
// assertions.
func Run(t *testing.T, dir, importPath string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkg := loadFixture(t, dir, importPath, dir, importPath)
	return checkPackage(t, a, pkg)
}

// RunModule loads one package of a multi-package fixture module and checks
// it like Run. modDir is the synthetic module root, modPath its module path,
// and pkgRel the slash-separated path of the package under test relative to
// modDir; imports of sibling fixture packages (modPath + "/...") resolve
// back into modDir. Only the loaded package's // want comments are checked.
func RunModule(t *testing.T, modDir, modPath, pkgRel string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	dir := filepath.Join(modDir, filepath.FromSlash(pkgRel))
	pkg := loadFixture(t, modDir, modPath, dir, modPath+"/"+pkgRel)
	return checkPackage(t, a, pkg)
}

// RunFix runs like Run, then applies the diagnostics' suggested fixes in
// memory and compares the rewritten file against the fixture's want.fixed
// golden (see checkFixed).
func RunFix(t *testing.T, dir, importPath string, a *analysis.Analyzer) {
	t.Helper()
	checkFixed(t, dir, Run(t, dir, importPath, a))
}

// RunModuleFix runs like RunModule, then applies the diagnostics' suggested
// fixes in memory and compares the rewritten file against the package's
// want.fixed golden.
func RunModuleFix(t *testing.T, modDir, modPath, pkgRel string, a *analysis.Analyzer) {
	t.Helper()
	dir := filepath.Join(modDir, filepath.FromSlash(pkgRel))
	checkFixed(t, dir, RunModule(t, modDir, modPath, pkgRel, a))
}

// checkFixed applies every suggested fix carried by diags to in-memory
// copies of the fixture sources and diffs the result against the golden
// file pkgDir/want.fixed. Exactly one fixture file must change (the golden
// holds its full fixed content), no fix may be skipped for conflicts, and
// the rewritten file must already be gofmt-clean — the same guarantees
// nvlint -fix makes.
func checkFixed(t *testing.T, pkgDir string, diags []analysis.Diagnostic) {
	t.Helper()
	sources := map[string][]byte{}
	for _, d := range diags {
		for _, fix := range d.Fixes {
			for _, e := range fix.Edits {
				if _, ok := sources[e.File]; ok {
					continue
				}
				data, err := os.ReadFile(e.File)
				if err != nil {
					t.Fatalf("reading fix target: %v", err)
				}
				sources[e.File] = data
			}
		}
	}
	changed, applied, skipped, err := analysis.ApplyFixesToSource(diags, sources)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if applied == 0 {
		t.Fatalf("no suggested fixes to apply; want.fixed mode needs at least one")
	}
	if skipped != 0 {
		t.Errorf("%d fixes skipped for conflicts; fixture fixes must all apply", skipped)
	}
	if len(changed) != 1 {
		t.Fatalf("fixes rewrote %d files, want exactly 1 (the want.fixed golden holds one file)", len(changed))
	}
	golden := filepath.Join(pkgDir, "want.fixed")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	for file, got := range changed {
		if formatted, err := format.Source(got); err != nil {
			t.Errorf("fixed %s does not parse: %v", file, err)
		} else if !bytes.Equal(formatted, got) {
			t.Errorf("fixed %s is not gofmt-clean", file)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fixed %s does not match %s:\n--- got ---\n%s\n--- want ---\n%s", file, golden, got, want)
		}
	}
}

// checkPackage applies the analyzer to pkg alone, so no dependency exports
// a fact, and reconciles its diagnostics with the package's // want
// expectations.
func checkPackage(t *testing.T, a *analysis.Analyzer, pkg *analysis.Package) []analysis.Diagnostic {
	t.Helper()
	diags := analysis.Run([]*analysis.Analyzer{a}, []*analysis.Package{pkg}, nil)

	wants := collectWants(t, pkg)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	return diags
}

// collectWants extracts the expectations from every comment in the package.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseComment(t, pkg, c)...)
			}
		}
	}
	return wants
}

func parseComment(t *testing.T, pkg *analysis.Package, c *ast.Comment) []*expectation {
	t.Helper()
	text := strings.TrimPrefix(c.Text, "//")
	idx := strings.Index(text, "want ")
	if idx < 0 {
		return nil
	}
	pos := pkg.Fset.Position(c.Pos())
	var out []*expectation
	for _, q := range wantRe.FindAllString(text[idx+len("want "):], -1) {
		pat, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
	}
	return out
}

// claim marks the first unclaimed expectation on the diagnostic's line whose
// regexp matches the message, and reports whether one was found.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
