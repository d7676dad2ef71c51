package server

import (
	"testing"

	"nvbench/internal/obs"
)

// TestRouteLabelsMatchRegisteredSchema pins routeLabel's bounded route set
// to obs.HTTPRoutes, so the HTTPSeconds series RegisterBase pre-creates and
// the labels the middleware actually emits cannot drift apart.
func TestRouteLabelsMatchRegisteredSchema(t *testing.T) {
	paths := map[string]string{
		"/":                 "/",
		"/api/entries":      "/api/entries",
		"/api/entry/7":      "/api/entry/:id",
		"/api/entry/7/vega": "/api/entry/:id/vega",
		"/api/query":        "/api/query",
		"/debug/events":     "/debug/events",
		"/entry/7":          "/entry/:id",
		"/healthz":          "other",
		"/no/such/page":     "other",
	}
	registered := map[string]bool{}
	for _, r := range obs.HTTPRoutes {
		registered[r] = true
	}
	seen := map[string]bool{}
	for path, want := range paths {
		got := routeLabel(path)
		if got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
		if !registered[got] {
			t.Errorf("routeLabel(%q) = %q, which obs.HTTPRoutes does not pre-register", path, got)
		}
		seen[got] = true
	}
	for _, r := range obs.HTTPRoutes {
		if !seen[r] {
			t.Errorf("obs.HTTPRoutes lists %q but no sampled path maps to it; stale schema", r)
		}
	}
}

// TestRequestSeriesNamesMatchL checks the request-counter names the
// server builds at construction against obs.L, for every route label and
// outcome the middleware can pair.
func TestRequestSeriesNamesMatchL(t *testing.T) {
	if want := len(obs.HTTPRoutes) * len(outcomes); len(testServer.requestSeries) != want {
		t.Errorf("%d request series, want %d", len(testServer.requestSeries), want)
	}
	for _, route := range obs.HTTPRoutes {
		for _, outcome := range outcomes {
			got := testServer.requestSeries[requestKey{route, outcome}]
			if want := obs.L(obs.HTTPRequests, "outcome", outcome, "route", route); got != want {
				t.Errorf("series for (%s, %s) = %q, want %q", route, outcome, got, want)
			}
		}
	}
}
