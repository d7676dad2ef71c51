package fsyncorder_test

import (
	"testing"

	"nvbench/internal/analysis"
	"nvbench/internal/analysis/analysistest"
	"nvbench/internal/analysis/passes/fsyncorder"
)

func TestFsyncorder(t *testing.T) {
	analysistest.Run(t, "testdata/src/internal/store", "example.com/internal/store", fsyncorder.Analyzer)
}

func TestFsyncorderScopedToStore(t *testing.T) {
	// The same writes outside internal/store are out of scope: only the
	// store commits crash-durable artifacts.
	loader := analysis.NewAdHocLoader("testdata/src/internal/store", "example.com/internal/exporter")
	pkg, err := loader.LoadDir("testdata/src/internal/store", "example.com/internal/exporter")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run([]*analysis.Analyzer{fsyncorder.Analyzer}, []*analysis.Package{pkg}, nil)
	if len(diags) != 0 {
		t.Fatalf("fsyncorder must be scoped to the store packages, got %v", diags)
	}
}
