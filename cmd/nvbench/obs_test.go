package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvbench/internal/obs"
)

// TestTraceFlagEmitsChromeTrace runs a small build with -trace and checks
// the exported file is a valid Chrome trace: one "pair" span per source
// pair, each pipeline stage represented, every event a complete ("X") span.
func TestTraceFlagEmitsChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, err := runCLI(t, "-dbs", "2", "-pairs", "3", "-seed", "2", "-trace", path)
	if err != nil {
		t.Fatalf("run with -trace: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	pairs := 0
	stages := map[string]int{}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete (X)", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Fatalf("event %q has negative duration", ev.Name)
		}
		if ev.Name == "pair" {
			pairs++
			if _, ok := ev.Args["pair_id"]; !ok {
				t.Errorf("pair span missing pair_id arg: %+v", ev)
			}
		} else {
			stages[ev.Name]++
		}
	}
	// One pair span per processed source pair: with no fault plan active,
	// that is exactly the run's pairs_synthesized stat.
	m := regexp.MustCompile(`pairs_synthesized=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no pairs_synthesized stat in output:\n%s", out)
	}
	want, _ := strconv.Atoi(m[1])
	if want == 0 || pairs != want {
		t.Errorf("pair spans = %d, want %d (from run stats)", pairs, want)
	}
	for _, stage := range []string{"treeedit", "execute", "deepeye", "nledit"} {
		if stages[stage] == 0 {
			t.Errorf("no %s spans in trace (have %v)", stage, stages)
		}
	}
}

// TestTraceFlagOnStoreLoad traces the -store load path, which runs no
// synthesis: the file must hold the store's load event, not a null list.
func TestTraceFlagOnStoreLoad(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if out, err := runCLI(t, "-store", dir, "-trace", path); err != nil {
		t.Fatalf("load run with -trace: %v\n%s", err, out)
	}
	var file struct {
		TraceEvents []struct{ Name, Cat string } `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil || len(file.TraceEvents) != 1 || file.TraceEvents[0] != struct{ Name, Cat string }{"load", "store"} {
		t.Fatalf("want one store load span, got %v:\n%s", err, data)
	}
}

// TestWriteTraceRefusesTruncatedRing checks that a trace whose events the
// ring already overwrote fails instead of writing a partial file.
func TestWriteTraceRefusesTruncatedRing(t *testing.T) {
	rec := obs.NewEventRecorder(1, nil)
	rec.Emit("a", obs.LayerBench, "pair", "ok", time.Millisecond)
	rec.Emit("b", obs.LayerBench, "pair", "ok", time.Millisecond)
	path := filepath.Join(t.TempDir(), "trace.json")
	err := writeTrace(path, rec)
	if err == nil || !strings.Contains(err.Error(), "kept 1 of the run's 2 events") {
		t.Fatalf("writeTrace over a wrapped ring = %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated trace was written (stat err %v)", err)
	}
}

// TestServeExposesMetrics starts a store-backed -serve run and scrapes
// /metrics: the Prometheus text must cover request counters, pipeline stage
// histograms, fault sites and cache counters — the full schema, zeros
// included, before any load.
func TestServeExposesMetrics(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:39421"
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, []string{"-store", dir, "-serve", addr}, &out)
	}()

	base := "http://" + addr
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get(base + "/readyz")
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// One app request so the per-route counters have traffic.
	if resp, err = http.Get(base + "/api/entries"); err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`nvbench_http_requests_total{outcome="ok",route="/api/entries"} 1`,
		`nvbench_stage_seconds_count{stage="sqlparse"}`,
		`nvbench_fault_calls_total{site="parse"}`,
		"nvbench_cache_hits_total",
		`nvbench_store_seconds_count{op="load"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestDebugAddrServesPprof boots a build-and-exit run with -debug-addr and
// checks the sidecar answers /debug/pprof/ and /metrics while up.
func TestDebugAddrServesPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:39422"
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		// -serve keeps the process (and the debug sidecar) alive.
		done <- run(ctx, []string{"-dbs", "2", "-pairs", "3", "-serve", "127.0.0.1:39423", "-debug-addr", addr}, &out)
	}()
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/debug/pprof/")
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("debug server never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profiles") {
		t.Fatalf("/debug/pprof/ = %d:\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "nvbench_stage_seconds") {
		t.Fatalf("debug /metrics = %d:\n%s", resp.StatusCode, body)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
