package detrand_test

import (
	"testing"

	"nvbench/internal/analysis"
	"nvbench/internal/analysis/passes/detrand"
)

// runQuiet applies the analyzer to a fixture dir under an arbitrary import
// path without interpreting // want comments.
func runQuiet(t *testing.T, dir, importPath string) []analysis.Diagnostic {
	t.Helper()
	loader := analysis.NewAdHocLoader(dir, importPath)
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return analysis.Run([]*analysis.Analyzer{detrand.Analyzer}, []*analysis.Package{pkg}, nil)
}
