// Package analysis is a small, dependency-free static-analysis framework in
// the style of golang.org/x/tools/go/analysis, built only on the standard
// library (go/parser, go/ast, go/types, go/build). It exists to enforce the
// two invariants the Go compiler cannot check for this repository:
//
//   - enum exhaustiveness: every switch over an internal/ast iota-enum
//     (ChartType, AggFunc, FilterOp, ...) must handle all declared constants
//     or carry a default, so that adding a grammar variant cannot silently
//     skip a pass;
//   - determinism: benchmark synthesis must regenerate byte-for-byte, so the
//     deterministic packages must not call time.Now, use the global math/rand
//     state, or let map-iteration order leak into output.
//
// The framework has five parts: a Loader that parses and type-checks module
// packages from source (see loader.go), the Analyzer/Pass/Diagnostic API in
// this file, a dependency-ordered parallel scheduler (sched.go) with a
// package-fact channel for cross-package checks (facts.go), a
// content-addressed result cache that makes warm runs skip re-analysis
// entirely (cache.go, engine.go), and a suggested-fix applier behind
// nvlint -fix (fix.go). An analysistest-style harness driven by
// // want "regexp" comments lives in the analysistest subpackage.
// Repo-specific analyzers live under internal/analysis/passes and the
// command-line driver is cmd/nvlint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Analyzers are stateless values; any
// configuration lives in exported package variables of the analyzer package
// so that tests and the driver can adjust scope.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, JSON output and
	// driver flags. It must be a valid flag name (lowercase, no spaces).
	Name string

	// Version participates in the result-cache key: bump it whenever the
	// analyzer's behavior changes so stale cached findings are invalidated.
	Version string

	// Doc is a one-paragraph description of what the analyzer reports and
	// which invariant it guards. The first line is used as flag usage.
	Doc string

	// FactTypes declares the package-fact prototypes this analyzer may
	// export, one per concrete Fact type (see facts.go). Analyzers that
	// export no facts leave it nil.
	FactTypes []Fact

	// Run executes the check over one package and returns its findings.
	// Implementations usually call Pass.Reportf and return
	// Pass.Diagnostics().
	Run func(*Pass) []Diagnostic
}

// Pass carries the per-package inputs an Analyzer runs over, mirroring
// x/tools' analysis.Pass: the file set, the parsed files, and the
// type-checked package with its info tables. Facts exported by the same
// analyzer on dependency packages are available through ImportPackageFact.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	facts *factStore // shared per run; nil-safe
	diags []Diagnostic
}

// Reportf records a diagnostic at pos with a Sprintf-style message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportWithFix records a diagnostic carrying one suggested fix, which
// nvlint -fix (and the analysistest want.fixed golden mode) can apply.
func (p *Pass) ReportWithFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Fixes:    []SuggestedFix{fix},
	})
}

// NewEdit resolves a [pos, end) token range into a byte-offset Edit that
// replaces the range with newText.
func (p *Pass) NewEdit(pos, end token.Pos, newText string) Edit {
	start := p.Fset.Position(pos)
	stop := p.Fset.Position(end)
	return Edit{File: start.Filename, Start: start.Offset, End: stop.Offset, NewText: newText}
}

// Diagnostics returns the findings recorded via Reportf, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding: an analyzer name, a resolved source position,
// a human-readable message, and optionally machine-applicable fixes. The
// JSON form is the result-cache wire format (cmd/nvlint -json has its own).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	Fixes    []SuggestedFix `json:"fixes,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package — dependency-ordered, so
// package facts flow from imported packages to importers — and returns all
// findings sorted by file, line, column, then analyzer name, so output is
// stable across runs regardless of scheduling or map order. Run is the
// serial reference semantics; Engine.Run must produce byte-identical
// output.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	facts := newFactStore()
	var out []Diagnostic
	for _, pkg := range topoOrder(pkgs) {
		out = append(out, runPackage(analyzers, pkg, facts)...)
	}
	SortDiagnostics(out)
	return out
}

// runPackage applies every analyzer to one package against a shared fact
// store, in analyzer order.
func runPackage(analyzers []*Analyzer, pkg *Package, facts *factStore) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			facts:    facts,
		}
		out = append(out, a.Run(pass)...)
	}
	return out
}

// SortDiagnostics orders findings by position then analyzer name.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
