package faultsite_test

import (
	"strings"
	"testing"

	"nvbench/internal/analysis"
	"nvbench/internal/analysis/analysistest"
	"nvbench/internal/analysis/passes/faultsite"
)

func TestFaultsiteRegistry(t *testing.T) {
	// Analyzing the fault package itself flags duplicate site values.
	analysistest.RunModule(t, "testdata/faultmod", "example.com", "internal/fault", faultsite.Analyzer)
}

func TestFaultsiteConsumersViaScopeFallback(t *testing.T) {
	// RunModule analyzes only the pipeline package, so no fact is exported
	// and the analyzer must fall back to the imported package's scope.
	analysistest.RunModule(t, "testdata/faultmod", "example.com", "internal/pipeline", faultsite.Analyzer)
}

func TestFaultsiteConsumersViaFact(t *testing.T) {
	// Running both packages through the driver exercises the fact path:
	// the fault package exports its registry, the pipeline imports it.
	loader := analysis.NewAdHocLoader("testdata/faultmod", "example.com")
	pkgs, err := loader.Load("./internal/fault", "./internal/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run([]*analysis.Analyzer{faultsite.Analyzer}, pkgs, nil)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		`duplicate fault site "parse"`,
		`site "renderx" is not registered`,
		`fault.Inject site must be a compile-time constant`,
		`fault.InjectContext site must be a compile-time constant`,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in diagnostics:\n%s", want, joined)
		}
	}
	if len(diags) != 4 {
		t.Fatalf("expected exactly 4 diagnostics, got %d:\n%s", len(diags), joined)
	}
	// The registered-site list in the message comes from the fact: it must
	// be the deduplicated, sorted registry.
	if !strings.Contains(joined, "known sites: parse, render, store.save") {
		t.Fatalf("fact-provided site list missing or unsorted:\n%s", joined)
	}
}
