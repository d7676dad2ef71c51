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
