package noprint_test

import (
	"testing"

	"nvbench/internal/analysis"
	"nvbench/internal/analysis/analysistest"
	"nvbench/internal/analysis/passes/noprint"
)

func TestNoprint(t *testing.T) {
	analysistest.Run(t, "testdata/src/internal/render", "example.com/internal/render", noprint.Analyzer)
}

func TestNoprintSkipsCommands(t *testing.T) {
	// The same file under a cmd/-style import path is exempt: binaries own
	// their stdout.
	loader := analysis.NewAdHocLoader("testdata/src/internal/render", "example.com/cmd/render")
	pkg, err := loader.LoadDir("testdata/src/internal/render", "example.com/cmd/render")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run([]*analysis.Analyzer{noprint.Analyzer}, []*analysis.Package{pkg}, nil)
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics for a cmd package, got %v", diags)
	}
}
