// Command nvlint runs the repository's custom static analyzers (see
// internal/analysis) over module packages and reports violations of the
// invariants the compiler cannot enforce: exhaustive handling of the
// internal/ast enums, determinism of the benchmark-synthesis packages,
// crash-durable store writes, registered fault-injection sites, canonical
// metric names and mutex discipline on the hot paths.
//
// Usage:
//
//	nvlint [flags] [packages]
//
//	nvlint ./...                      # lint the whole module
//	nvlint -json ./internal/...       # machine-readable findings
//	nvlint -errdrop=false ./...       # disable one analyzer
//	nvlint -fix ./...                 # apply suggested fixes in place
//
// Patterns resolve relative to the module root (found via go.mod, starting
// at -C). The matched packages and the module packages they import are
// analyzed one at a time in dependency order, so package facts reach every
// importer; findings are reported for the matched packages only. nvlint
// exits 0 when no analyzer reports a finding, 1 when at least one does,
// and 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nvbench/internal/analysis"
	"nvbench/internal/analysis/passes/detrand"
	"nvbench/internal/analysis/passes/errdrop"
	"nvbench/internal/analysis/passes/exhaustive"
	"nvbench/internal/analysis/passes/faultsite"
	"nvbench/internal/analysis/passes/fsyncorder"
	"nvbench/internal/analysis/passes/lockcheck"
	"nvbench/internal/analysis/passes/noprint"
	"nvbench/internal/analysis/passes/obslabel"
)

// all lists every analyzer the driver knows, in flag/report order.
var all = []*analysis.Analyzer{
	detrand.Analyzer,
	errdrop.Analyzer,
	exhaustive.Analyzer,
	faultsite.Analyzer,
	fsyncorder.Analyzer,
	lockcheck.Analyzer,
	noprint.Analyzer,
	obslabel.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// run is the testable driver body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array")
		chdir   = fs.String("C", ".", "locate the module starting from this directory")
		fix     = fs.Bool("fix", false, "apply suggested fixes to the source files")
	)
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = fs.Bool(a.Name, true, doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*chdir)
	if err != nil {
		fmt.Fprintln(stderr, "nvlint:", err)
		return 2
	}

	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	roots, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "nvlint:", err)
		return 2
	}
	diags := analysis.Run(active, roots, loader.Deps(roots))

	if *fix {
		// Apply while positions are still absolute; the edits carry
		// absolute file names.
		res, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "nvlint:", err)
			return 2
		}
		if res.Applied > 0 || res.Skipped > 0 {
			fmt.Fprintf(stderr, "nvlint: applied %d fix(es) to %d file(s), skipped %d\n", res.Applied, len(res.Files), res.Skipped)
		}
	}
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModDir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "nvlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "nvlint: %d finding(s) in %d package(s)\n", len(diags), len(roots))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
