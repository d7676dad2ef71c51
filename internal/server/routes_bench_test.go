package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeRoutes times one request per route class of the nvperf
// serve mix against testServer, cycling over its entries where the route
// names one.
func BenchmarkServeRoutes(b *testing.B) {
	entries := testServer.Bench.Entries
	etags := make([]string, len(entries))
	for i, e := range entries {
		rec := httptest.NewRecorder()
		testServer.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/entry/%d", e.ID), nil))
		etags[i] = rec.Header().Get("ETag")
	}
	entryPaths := func(format string) func(i int) (string, string) {
		return func(i int) (string, string) {
			return fmt.Sprintf(format, entries[i%len(entries)].ID), ""
		}
	}
	routes := []struct {
		name string
		req  func(i int) (path, ifNoneMatch string)
		want int
	}{
		{"revalidate", func(i int) (string, string) {
			i %= len(entries)
			return fmt.Sprintf("/api/entry/%d", entries[i].ID), etags[i]
		}, http.StatusNotModified},
		{"api_entry", entryPaths("/api/entry/%d"), http.StatusOK},
		{"vega", entryPaths("/api/entry/%d/vega"), http.StatusOK},
		{"entry_html", entryPaths("/entry/%d"), http.StatusOK},
		{"entries", func(i int) (string, string) {
			return fmt.Sprintf("/api/entries?offset=%d&limit=50", 50*(i%(len(entries)/50+1))), ""
		}, http.StatusOK},
		{"index", func(int) (string, string) { return "/", "" }, http.StatusOK},
	}
	for _, rt := range routes {
		b.Run(rt.name, func(b *testing.B) {
			reqs := make([]*http.Request, len(entries))
			for i := range reqs {
				path, tag := rt.req(i)
				reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
				if tag != "" {
					reqs[i].Header.Set("If-None-Match", tag)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				testServer.ServeHTTP(rec, reqs[i%len(reqs)])
				if rec.Code != rt.want {
					b.Fatalf("%s: status %d, want %d", reqs[i%len(reqs)].URL, rec.Code, rt.want)
				}
			}
		})
	}
}
