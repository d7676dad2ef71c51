package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"nvbench/internal/vql"
)

// BenchmarkServeRoutes times one request per route class of the nvperf
// serve mix, cycling over the entries where the route names one, against
// a server over testServer's benchmark with 16 store shards and a db
// index, as a store-backed server has. Specs are cached per entry, so
// vega and entry_html render during their first cycle over the entries
// and measure warm entries after it. The two query routes use the mix's
// query shapes: a db equality the index answers, and a full scan.
func BenchmarkServeRoutes(b *testing.B) {
	s := New(testServer.Bench)
	entries := s.Bench.Entries
	shards := make([]string, len(entries))
	ix := stubIndex{}
	dbSet, domainSet := map[string]bool{}, map[string]bool{}
	for i, e := range entries {
		shards[i] = fmt.Sprintf("%02x", i%16)
		ix[e.DB.Name] = append(ix[e.DB.Name], s.etags[i])
		dbSet[e.DB.Name], domainSet[e.DB.Domain] = true, true
	}
	if err := s.SetEntryShards(shards); err != nil {
		b.Fatal(err)
	}
	if err := s.SetQueryIndexes(map[string]vql.Index{"db": ix}); err != nil {
		b.Fatal(err)
	}
	dbs, domains := sortedSet(dbSet), sortedSet(domainSet)
	etags := make([]string, len(entries))
	for i, e := range entries {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/entry/%d", e.ID), nil))
		etags[i] = rec.Header().Get("ETag")
	}
	entryPaths := func(format string) func(i int) (string, string) {
		return func(i int) (string, string) {
			return fmt.Sprintf(format, entries[i%len(entries)].ID), ""
		}
	}
	query := func(q string) string { return "/api/query?q=" + url.QueryEscape(q) }
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
		{"query_indexed", func(i int) (string, string) {
			return query(fmt.Sprintf("SELECT hardness, chart, count(*) FROM entries WHERE db = '%s' GROUP BY 1, 2 ORDER BY 3 DESC",
				dbs[i%len(dbs)])), ""
		}, http.StatusOK},
		{"query_scan", func(i int) (string, string) {
			return query(fmt.Sprintf("SELECT db, count(*), avg(tokens) FROM entries WHERE domain = '%s' AND nl_count >= %d GROUP BY 1 ORDER BY 2 DESC LIMIT 5",
				domains[i%len(domains)], 2+i%3)), ""
		}, http.StatusOK},
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
				s.ServeHTTP(rec, reqs[i%len(reqs)])
				if rec.Code != rt.want {
					b.Fatalf("%s: status %d, want %d", reqs[i%len(reqs)].URL, rec.Code, rt.want)
				}
			}
		})
	}
}
