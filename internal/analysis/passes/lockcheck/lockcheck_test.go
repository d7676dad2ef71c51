package lockcheck_test

import (
	"strings"
	"testing"

	"nvbench/internal/analysis"
	"nvbench/internal/analysis/analysistest"
	"nvbench/internal/analysis/passes/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata/src/internal/server", "example.com/internal/server", lockcheck.Analyzer)
}

func TestLockcheckBlockingScopedToHotPaths(t *testing.T) {
	// Outside internal/server and internal/store the signature and pairing
	// rules still apply, but blocking under a lock is tolerated.
	loader := analysis.NewAdHocLoader("testdata/src/internal/server", "example.com/internal/worker")
	pkg, err := loader.LoadDir("testdata/src/internal/server", "example.com/internal/worker")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run([]*analysis.Analyzer{lockcheck.Analyzer}, []*analysis.Package{pkg}, nil)
	if len(diags) != 5 {
		t.Fatalf("expected the 3 signature + 2 pairing diagnostics outside hot paths, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "blocking call") {
			t.Fatalf("blocking-call rule must be scoped to hot paths, got: %s", d.Message)
		}
	}
}
