package main

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRunCompletesUnderFaultPlan is the CLI acceptance check: with a plan
// injecting errors at ≥5% on parse, classify and render plus panics at
// every registered site, a full run must complete and emit a quarantine
// report that accounts for every skipped pair.
func TestRunCompletesUnderFaultPlan(t *testing.T) {
	var out strings.Builder
	args := []string{
		"-dbs", "4", "-pairs", "6", "-seed", "2",
		"-retries", "4",
		"-faults", "parse:error:0.05,classify:error:0.08,render:error:0.05,*:panic:0.03",
		"-fault-seed", "7",
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run aborted under fault plan: %v\n%s", err, out.String())
	}
	text := out.String()

	for _, want := range []string{
		"fault plan active:",
		"synthesized benchmark:",
		"run stats:",
		"quarantine:",
		"fault injections by site:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// The quarantine summary must account for every skipped pair: the
	// header count matches the number of per-pair detail lines.
	m := regexp.MustCompile(`quarantine: (\d+) of (\d+) pairs skipped`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no quarantine summary in output:\n%s", text)
	}
	skipped, _ := strconv.Atoi(m[1])
	processed, _ := strconv.Atoi(m[2])
	if processed == 0 {
		t.Fatal("no pairs processed")
	}
	detail := regexp.MustCompile(`(?m)^  pair \d+\s+stage=\S+\s+attempts=\d+`).FindAllString(text, -1)
	wantDetail := min(skipped, 20) // detail lines cap at 20 with an "… and N more" trailer
	if len(detail) != wantDetail {
		t.Fatalf("quarantine header says %d skipped but %d detail lines:\n%s", skipped, len(detail), text)
	}

	// The plan really fired: at least one site reports injections.
	inj := regexp.MustCompile(`errors=(\d+)\s+panics=(\d+)`).FindAllStringSubmatch(text, -1)
	fired := 0
	for _, g := range inj {
		e, _ := strconv.Atoi(g[1])
		p, _ := strconv.Atoi(g[2])
		fired += e + p
	}
	if fired == 0 {
		t.Fatalf("fault plan active but zero injections recorded:\n%s", text)
	}
}

// TestFaultTableCountsExportInjections checks that the "fault injections
// by site" table is printed after the -out export, so the render faults
// fired while exporting Vega-Lite specs are counted in it.
func TestFaultTableCountsExportInjections(t *testing.T) {
	var out strings.Builder
	args := []string{
		"-dbs", "3", "-pairs", "5", "-seed", "2",
		"-faults", "render:latency:1:1ms",
		"-out", filepath.Join(t.TempDir(), "p.json"), "-vega",
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	m := regexp.MustCompile(`(?m)^  render\s+calls=(\d+)\s+errors=\d+\s+panics=\d+\s+delays=(\d+)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no render row in the fault table:\n%s", text)
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("render row reports calls=%s delays=%s, want both > 0:\n%s", m[1], m[2], text)
	}
	if strings.Index(text, "fault injections by site:") < strings.Index(text, "wrote ") {
		t.Errorf("fault table printed before the export finished:\n%s", text)
	}
}

// TestRunDeterministicUnderSameFaultSeed re-runs the same plan and expects
// byte-identical statistics: injection decisions are pure functions of
// (seed, site, counter), not wall clock or scheduling.
func TestRunDeterministicUnderSameFaultSeed(t *testing.T) {
	runOnce := func() string {
		var out strings.Builder
		args := []string{
			"-dbs", "3", "-pairs", "5", "-seed", "2",
			"-workers", "1", // one worker: per-site call order is fixed too
			"-faults", "synthesize:error:0.2", "-fault-seed", "11",
		}
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if a, b := runOnce(), runOnce(); stripTimings(a) != stripTimings(b) {
		t.Fatal("identical seeds produced different runs")
	}
}

// stripTimings drops the per-stage timing table from a CLI transcript —
// the one block whose numbers are wall-clock, hence legitimately different
// between otherwise deterministic runs.
func stripTimings(out string) string {
	var keep []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pipeline stage timings:") {
			inTable = true
			continue
		}
		if inTable && strings.HasPrefix(line, "  ") && strings.Contains(line, "calls=") {
			continue
		}
		inTable = false
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestServeShutsDownGracefully drives -serve through run() and cancels the
// context, as SIGINT would: run must return nil after draining.
func TestServeShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:39417"
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, []string{"-dbs", "2", "-pairs", "4", "-serve", addr}, &out)
	}()

	// Wait for the server to come up, then check it answers.
	url := "http://" + addr
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/readyz")
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up on %s: %v", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after context cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
}

// TestRunRejectsBadFaultSpec ensures plan parse errors surface before any
// work starts.
func TestRunRejectsBadFaultSpec(t *testing.T) {
	for _, spec := range []string{"nosuchsite:error:0.5", "parse:explode:1", "parse:error:1.5", "store.save:error:1"} {
		err := run(context.Background(), []string{"-faults", spec}, io.Discard)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
		} else if !strings.Contains(err.Error(), "fault") {
			t.Errorf("spec %q: error %v does not mention fault plan", spec, err)
		}
	}
}
