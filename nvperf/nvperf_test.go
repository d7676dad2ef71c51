package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload of BENCHMARK.json briefly, end to end and
// traced, and checks that each result line is correct and carries exactly
// the metrics BENCHMARK.json names, with their units. End-to-end metrics
// must be non-zero. A traced run itself fails unless its workload measured
// exactly the per-layer metrics perLayer lists for it.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "out.txt")
				res := runSmoke(t, w.Name, trace, out)
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
					}
				}
				if trace == "1" {
					checkCompare(t, out)
				}
			})
		}
	}
}

// TestEveryLayerMeasured checks that each per-layer metric is measured by
// at least one workload of BENCHMARK.json, so none reads 0 everywhere.
func TestEveryLayerMeasured(t *testing.T) {
	workloads := map[string]bool{}
	for _, w := range readSpec(t).Workloads {
		workloads[w.Name] = true
	}
	for _, d := range perLayer {
		if len(d.on) == 0 {
			t.Errorf("no workload measures %s", d.name)
		}
		for _, w := range d.on {
			if !workloads[w] {
				t.Errorf("%s is listed for workload %q, which BENCHMARK.json does not name", d.name, w)
			}
		}
	}
}

// runSmoke runs one short workload, saves its output to out and returns
// the parsed result, which must be correct.
func runSmoke(t *testing.T, workload, trace, out string) *result {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
		"--workdir", dir, "--trace-file", filepath.Join(dir, "trace.json")}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkCompare compares a traced output with itself: every metric is
// listed with a zero delta.
func checkCompare(t *testing.T, out string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-compare", out, out}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(perLayer)+1 {
		t.Fatalf("compare printed %d lines for %d metrics", len(lines), len(perLayer))
	}
	for _, l := range lines[1:] {
		if f := strings.Fields(l); len(f) < 4 || f[3] != "0" {
			t.Errorf("self-compare line %q has a non-zero delta", l)
		}
	}
}
