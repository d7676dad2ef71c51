package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeOpsSurfaceEndToEnd is the tracing acceptance over a real
// served store: one /api/query request answers with an X-Request-ID
// whose wide events — the HTTP request and the VQL execution with the
// shards it read — are retrievable at /debug/events?op=, the request's
// op ID lands as a /metrics exemplar, and the build-info and runtime
// series are exposed.
func TestServeOpsSurfaceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:39423"
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

	// One query; its response names the operation.
	resp, err = http.Get(base + "/api/query?q=SELECT+db+FROM+entries+LIMIT+2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/query = %d", resp.StatusCode)
	}
	op := resp.Header.Get("X-Request-ID")
	if op == "" {
		t.Fatal("query response has no X-Request-ID")
	}

	// The operation's wide events are one GET away.
	resp, err = http.Get(base + "/debug/events?op=" + op)
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Events []struct {
			Layer   string            `json:"layer"`
			Site    string            `json:"site"`
			Outcome string            `json:"outcome"`
			Fields  map[string]string `json:"fields"`
		} `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]int{}
	for _, e := range page.Events {
		layers[e.Layer]++
	}
	if layers["http"] != 1 || layers["vql"] != 1 {
		t.Fatalf("op %s events by layer = %v, want one http and one vql", op, layers)
	}
	for _, e := range page.Events {
		switch e.Layer {
		case "http":
			if e.Site != "/api/query" || e.Outcome != "ok" || e.Fields["status"] != "200" {
				t.Fatalf("http event = %+v", e)
			}
		case "vql":
			if e.Fields["shards"] == "" || e.Fields["failover"] != "false" {
				t.Fatalf("vql event = %+v", e)
			}
		}
	}

	// The scrape carries the query's op as an exemplar, the build-info
	// gauge, and the runtime series.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`# {op="` + op + `"}`,
		"nvbench_build_info{",
		"nvbench_go_goroutines",
		"nvbench_go_gc_pause_seconds_count",
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
