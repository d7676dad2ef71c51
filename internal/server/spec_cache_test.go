// Tests for the per-entry Vega-Lite spec cache: concurrent first
// requests, the render fault site on warm and cold entries, and the
// cache field of the render event. The byte-for-byte oracle over every
// entry is in oracle_test.go.

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nvbench/internal/fault"
	"nvbench/internal/obs"
	"nvbench/internal/render"
)

func TestSpecCacheConcurrentFirstRequests(t *testing.T) {
	s := New(testServer.Bench)
	e := s.Bench.Entries[0]
	want, err := render.VegaLite(e.DB, e.Vis)
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/api/entry/%d/vega", e.ID)
	start := make(chan struct{})
	bodies := make([][]byte, 16)
	codes := make([]int, len(bodies))
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := doGet(s, path)
			codes[g], bodies[g] = rec.Code, rec.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for g := range bodies {
		if codes[g] != http.StatusOK || !bytes.Equal(bodies[g], want) {
			t.Errorf("goroutine %d: status %d, body equal to render.VegaLite: %v", g, codes[g], bytes.Equal(bodies[g], want))
		}
	}
}

// renderEvents returns the events op left at the render stage and at the
// render fault site.
func renderEvents(t *testing.T, s *Server, op string) (stage, faults []obs.Event) {
	t.Helper()
	for _, e := range decodeEventsPage(t, doGet(s, "/debug/events?op="+op)).Events {
		switch {
		case e.Layer == obs.LayerBench && e.Site == obs.StageRender:
			stage = append(stage, e)
		case e.Layer == obs.LayerFault && e.Site == fault.SiteRender:
			faults = append(faults, e)
		}
	}
	return stage, faults
}

func TestRenderEventReportsCache(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	id := s.Bench.Entries[0].ID
	for _, step := range []struct{ path, op, cache string }{
		{fmt.Sprintf("/api/entry/%d/vega", id), "first", "render"},
		{fmt.Sprintf("/entry/%d", id), "second", "hit"},
		{fmt.Sprintf("/api/entry/%d/vega", id), "third", "hit"},
	} {
		if rec := getWithRequestID(s, step.path, step.op); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", step.path, rec.Code)
		}
		stage, _ := renderEvents(t, s, step.op)
		if len(stage) != 1 || stage[0].Outcome != "ok" || stage[0].Field("cache") != step.cache {
			t.Errorf("%s (op %s): render events %+v, want one ok event with cache=%s", step.path, step.op, stage, step.cache)
		}
	}
}

// TestRenderFaultReachesCachedSpecs checks that a cached spec still
// passes the render fault site once per request: an injected error
// answers 500 with the body a cold render gives, and a latency fault
// leaves exactly one fault event under the request's op, warm or cold.
func TestRenderFaultReachesCachedSpecs(t *testing.T) {
	warm, _ := newDebugServer(t, DefaultConfig())
	cold := NewWithConfig(warm.Bench, warm.cfg)
	id := warm.Bench.Entries[0].ID
	vega := fmt.Sprintf("/api/entry/%d/vega", id)
	if rec := doGet(warm, vega); rec.Code != http.StatusOK {
		t.Fatalf("%s = %d", vega, rec.Code)
	}

	// A fresh plan per request, so both error bodies name call 1.
	underError := func(s *Server, path string) *httptest.ResponseRecorder {
		plan, err := fault.ParsePlan("render:error:1", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer fault.Activate(plan)()
		return doGet(s, path)
	}
	// Both routes write a render error the same way, warm and cold: one
	// 500 body carrying the error's own single "render: " prefix.
	want := underError(cold, vega).Body.String()
	if !strings.HasPrefix(want, "render: ") || strings.Count(want, "render: ") != 1 {
		t.Fatalf("%s under a render error: body %q, want one render: prefix", vega, want)
	}
	for _, path := range []string{vega, fmt.Sprintf("/entry/%d", id)} {
		hit, miss := underError(warm, path), underError(cold, path)
		for _, rec := range []*httptest.ResponseRecorder{hit, miss} {
			if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
				t.Errorf("%s under a render error: warm %d %q, cold %d %q; want 500 %q",
					path, hit.Code, hit.Body.String(), miss.Code, miss.Body.String(), want)
			}
		}
	}

	defer fault.Instrument(warm.cfg.Obs)()
	plan, err := fault.ParsePlan("render:latency:1:1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Activate(plan)()
	for _, tc := range []struct {
		s     *Server
		op    string
		cache string
	}{{warm, "abc", "hit"}, {cold, "def", "render"}} {
		if rec := getWithRequestID(tc.s, vega, tc.op); rec.Code != http.StatusOK {
			t.Fatalf("%s under a render delay = %d", vega, rec.Code)
		}
		stage, faults := renderEvents(t, tc.s, tc.op)
		if len(faults) != 1 || faults[0].Field("kind") != "latency" {
			t.Errorf("op %s: render fault events %+v, want one latency injection", tc.op, faults)
		}
		if len(stage) != 1 || stage[0].Field("cache") != tc.cache {
			t.Errorf("op %s: render events %+v, want one with cache=%s", tc.op, stage, tc.cache)
		}
	}
}
