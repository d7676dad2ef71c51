package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/obs"
	"nvbench/internal/server"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
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
// synthesis: the file must hold the store's load event and one shard_load
// span per shard it read (shards holding no entry are not read), all on
// the load's track — not a null list.
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
		TraceEvents []struct {
			Name, Cat string
			TID       int64
			Args      map[string]string
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil || len(file.TraceEvents) == 0 {
		t.Fatalf("want a store load trace, got %v:\n%s", err, data)
	}
	load := file.TraceEvents[0]
	if load.Name != "load" || load.Cat != "store" {
		t.Fatalf("first span = %s/%s, want store/load:\n%s", load.Cat, load.Name, data)
	}
	shards := map[string]bool{}
	for _, ev := range file.TraceEvents[1:] {
		if ev.Name != "shard_load" || ev.Cat != "store" || ev.TID != load.TID || ev.Args["op"] != load.Args["op"] {
			t.Fatalf("span %s/%s on track %d (op %q), want store/shard_load on the load's track %d (op %q)",
				ev.Cat, ev.Name, ev.TID, ev.Args["op"], load.TID, load.Args["op"])
		}
		shards[ev.Args["shard"]] = true
	}
	n, _ := strconv.Atoi(load.Args["shards"])
	if len(shards) == 0 || len(shards) > n || len(shards) != len(file.TraceEvents)-1 {
		t.Fatalf("%d shard_load spans over %d distinct shards of %d, want one per shard read", len(file.TraceEvents)-1, len(shards), n)
	}
}

// TestTraceFlagKeepsEveryParseOfALargeCorpus traces a run whose corpus
// generation alone parses more SQL than the default event ring holds: the
// ring must be grown before generation, so -trace still writes a complete
// file with one sqlparse span per parse. -max-pairs keeps the build small.
func TestTraceFlagKeepsEveryParseOfALargeCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, err := runCLI(t, "-dbs", "4", "-pairs", "300", "-seed", "3", "-max-pairs", "4", "-trace", path)
	if err != nil {
		t.Fatalf("run with -trace: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`generated corpus: \d+ databases, (\d+) \(nl, sql\) pairs`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no corpus size in output:\n%s", out)
	}
	pairs, _ := strconv.Atoi(m[1])
	if pairs <= obs.DefaultEventCapacity {
		t.Fatalf("corpus has %d pairs; the test needs more than the ring's %d", pairs, obs.DefaultEventCapacity)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	parses := 0
	for _, ev := range file.TraceEvents {
		if ev.Name == obs.StageSQLParse {
			if ev.Cat != obs.LayerBench || ev.Args["outcome"] != "ok" {
				t.Fatalf("sqlparse span = %+v", ev)
			}
			parses++
		}
	}
	if parses < pairs {
		t.Fatalf("trace holds %d sqlparse spans for %d generated pairs", parses, pairs)
	}
	// The stage table reads the histogram the same End calls observed.
	m = regexp.MustCompile(`(?m)^\s+sqlparse\s+calls=(\d+)`).FindStringSubmatch(out)
	if m == nil || m[1] != strconv.Itoa(parses) {
		t.Fatalf("stage table sqlparse row %q, want calls=%d", m, parses)
	}
}

// TestOneRecordPerTimedOperation pins the single timing path: generate,
// build, export -vega, and serve one Vega-Lite spec and one /api/query,
// all with events on. For every pipeline stage the stage histogram's
// count must equal the number of wide events at that site — each timed
// operation is one record feeding both — and the server's render span
// must sit on its request's op.
func TestOneRecordPerTimedOperation(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewEventRecorder(1<<14, nil)
	ins := &obs.Instruments{Metrics: reg, Events: rec, IDs: obs.NewIDGen(obs.RealClock{})}
	defer sqlparser.Instrument(ins)()

	corpus, err := spider.Generate(spider.Config{Seed: 2, NumDatabases: 3, PairsPerDB: 5, MaxRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.DefaultOptions()
	opts.Obs = ins
	b, err := bench.Build(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := export(b, filepath.Join(t.TempDir(), "pairs.json"), true, ins); err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.Obs = ins
	srv := server.NewWithConfig(b, cfg)
	var vegaOp string
	for _, target := range []string{
		"/api/entry/" + strconv.Itoa(b.Entries[0].ID) + "/vega",
		"/api/query?q=SELECT+chart,+count(*)+FROM+entries+GROUP+BY+1",
	} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", target, w.Code, w.Body)
		}
		if vegaOp == "" {
			vegaOp = w.Header().Get("X-Request-ID")
		}
	}

	if kept := len(rec.Events(obs.EventFilter{})); rec.Total() != uint64(kept) {
		t.Fatalf("the ring kept %d of %d events", kept, rec.Total())
	}
	snap := reg.Snapshot()
	for _, stage := range obs.Stages {
		n := snap.Histograms[obs.L(obs.StageHistogram, "stage", stage)].Count
		events := rec.Events(obs.EventFilter{Site: stage})
		if n == 0 || uint64(len(events)) != n {
			t.Errorf("stage %s: histogram count %d, wide events %d; want one record per operation", stage, n, len(events))
		}
	}
	render := rec.Events(obs.EventFilter{Op: vegaOp, Site: obs.StageRender})
	if vegaOp == "" || len(render) != 1 || render[0].Layer != obs.LayerBench {
		t.Fatalf("render events on the vega request's op %q = %+v, want one bench-layer span", vegaOp, render)
	}
}

// TestTraceFlagRecordsFaultSpans traces a build under parse errors and an
// export under render latency: the trace holds one fault span per fired
// injection, with its kind, and each latency span lies within the render
// span it delayed — it starts before the delay, not after it.
func TestTraceFlagRecordsFaultSpans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	out, err := runCLI(t, append(smallBuild, "-faults", "parse:error:0.5,render:latency:1:2ms",
		"-out", filepath.Join(dir, "pairs.json"), "-vega", "-trace", path)...)
	if err != nil {
		t.Fatalf("run with -faults -trace: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(?m)^\s+parse\s+calls=\d+\s+errors=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no parse fault stats in output:\n%s", out)
	}
	parseErrors, _ := strconv.Atoi(m[1])
	var file struct {
		TraceEvents []struct {
			Name, Cat string
			TS, Dur   float64
			Args      map[string]string
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	type span struct{ ts, end float64 }
	var renders, delays []span
	faults := map[string]int{}
	for _, ev := range file.TraceEvents {
		switch {
		case ev.Cat == obs.LayerFault:
			faults[ev.Name+":"+ev.Args["kind"]]++
			if ev.Name == "render" {
				delays = append(delays, span{ev.TS, ev.TS + ev.Dur})
			}
		case ev.Cat == obs.LayerBench && ev.Name == obs.StageRender:
			renders = append(renders, span{ev.TS, ev.TS + ev.Dur})
		}
	}
	want := map[string]int{"parse:error": parseErrors, "render:latency": len(renders)}
	if parseErrors == 0 || len(renders) == 0 || !reflect.DeepEqual(faults, want) {
		t.Fatalf("fault spans by site:kind = %v, want %v", faults, want)
	}
	for _, d := range delays {
		if !slices.ContainsFunc(renders, func(r span) bool { return r.ts <= d.ts && d.end <= r.end }) {
			t.Fatalf("render latency span [%.1f, %.1f]µs lies within no render span", d.ts, d.end)
		}
	}
}

// TestTraceFlagOnHealthVerbs traces the store health verbs, which end the
// run before any load or build: -scrub and -fsck leave a trace whether
// they pass or fail, and so does a lossy -repair that exits without
// serving. Scrub and repair traces hold the verb's own store span.
func TestTraceFlagOnHealthVerbs(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}
	verb := func(flag, span string, wantErr bool) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "trace.json")
		out, err := runCLI(t, "-store", dir, flag, "-trace", path)
		if (err != nil) != wantErr {
			t.Fatalf("%s -trace: err = %v, want error %v\n%s", flag, err, wantErr, out)
		}
		var file struct {
			TraceEvents []struct{ Name, Cat string } `json:"traceEvents"`
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &file)
		}
		if err != nil {
			t.Fatalf("%s trace: %v", flag, err)
		}
		var spans []string
		for _, ev := range file.TraceEvents {
			spans = append(spans, ev.Cat+"/"+ev.Name)
		}
		if span != "" && !slices.Contains(spans, span) {
			t.Fatalf("%s trace spans = %v, want a %s span", flag, spans, span)
		}
	}
	verb("-scrub", "store/scrub", false)
	verb("-fsck", "", false)
	flipEntryByte(t, dir)
	verb("-fsck", "", true)
	verb("-scrub", "store/scrub", true)
	flipEntryByte(t, dir)
	verb("-repair", "store/repair", true)
}

// treeBytes maps every file under root (relative path) to its bytes.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err == nil {
			tree[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSlowServeLeavesStoreByteIdentical serves a saved store with every
// request delayed past any latency threshold and requires the store tree
// to be unchanged afterwards: serving events live only in memory.
func TestSlowServeLeavesStoreByteIdentical(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}
	before := treeBytes(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:39429"
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, []string{"-store", dir, "-serve", addr, "-faults", "server:latency:1:300ms"}, &out)
	}()
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		if resp, err = http.Get("http://" + addr + "/api/entries"); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/entries = %d", resp.StatusCode)
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
	after := treeBytes(t, dir)
	for name, data := range after {
		if b, ok := before[name]; !ok || !bytes.Equal(b, data) {
			t.Errorf("serving wrote %s", name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			t.Errorf("serving removed %s", name)
		}
	}
}

// TestTracedServeKeepsABoundedRing traces a build that goes on to serve:
// the trace is written before serving, and serving records into a ring of
// DefaultEventCapacity events, not the traced run's unbounded one.
func TestTracedServeKeepsABoundedRing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:39431"
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, append(smallBuild, "-trace", path, "-serve", addr), &out)
	}()
	get := func(target string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + target)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", target, resp.StatusCode, err)
		}
		return body
	}
	var err error
	for i := 0; i < 200; i++ {
		var resp *http.Response
		if resp, err = http.Get("http://" + addr + "/api/entry/0"); err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace not written before serving: %v", err)
	}
	requests := obs.DefaultEventCapacity + 100
	for i := 0; i < requests; i++ {
		get("/api/entry/0")
	}
	var page struct {
		Total uint64 `json:"total"`
		Count int    `json:"count"`
	}
	if err := json.Unmarshal(get("/debug/events"), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total < uint64(requests) || page.Count > obs.DefaultEventCapacity {
		t.Fatalf("after %d requests the ring holds %d of %d events, want at most %d",
			requests, page.Count, page.Total, obs.DefaultEventCapacity)
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

// TestServeExposesMetrics starts a store-backed -serve run and scrapes
// /metrics: the Prometheus text must cover request counters, pipeline stage
// histograms, fault sites and build counters — the full schema, zeros
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
		"nvbench_pairs_synthesized_total",
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
