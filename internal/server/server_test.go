package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/obs"
	"nvbench/internal/spider"
)

var testServer = func() *Server {
	corpus, err := spider.Generate(spider.TestConfig())
	if err != nil {
		panic(err)
	}
	b, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return New(b)
}()

func get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	testServer.ServeHTTP(rec, req)
	return rec
}

func TestIndexListsEntries(t *testing.T) {
	rec := get(t, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "nvbench") || !strings.Contains(body, "/entry/0") {
		t.Errorf("index missing content")
	}
}

func TestEntryPageRendersChart(t *testing.T) {
	rec := get(t, "/entry/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{"vegaEmbed", "entry 0", "<li>"} {
		if !strings.Contains(body, want) {
			t.Errorf("entry page missing %q", want)
		}
	}
}

// apiPage mirrors the paginated /api/entries response shape.
type apiPage struct {
	Total   int              `json:"total"`
	Offset  int              `json:"offset"`
	Limit   int              `json:"limit"`
	Entries []map[string]any `json:"entries"`
}

func getPage(t *testing.T, path string) apiPage {
	t.Helper()
	rec := get(t, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status = %d: %s", path, rec.Code, rec.Body.String())
	}
	var page apiPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("%s: bad JSON: %v", path, err)
	}
	return page
}

func TestAPIEntries(t *testing.T) {
	page := getPage(t, "/api/entries")
	total := len(testServer.Bench.Entries)
	if page.Total != total {
		t.Fatalf("total = %d, want %d", page.Total, total)
	}
	if page.Offset != 0 || page.Limit != 100 {
		t.Fatalf("defaults = offset %d limit %d, want 0/100", page.Offset, page.Limit)
	}
	want := total
	if want > 100 {
		want = 100
	}
	if len(page.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(page.Entries), want)
	}
	first := page.Entries[0]
	for _, key := range []string{"id", "chart", "hardness", "vql", "nl_queries"} {
		if _, ok := first[key]; !ok {
			t.Errorf("entry JSON missing %q", key)
		}
	}
}

func TestAPIEntriesPagination(t *testing.T) {
	total := len(testServer.Bench.Entries)
	if total < 3 {
		t.Fatalf("test benchmark too small (%d entries)", total)
	}
	page := getPage(t, "/api/entries?offset=1&limit=2")
	if page.Total != total || page.Offset != 1 || page.Limit != 2 {
		t.Fatalf("page meta = %+v", page)
	}
	if len(page.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(page.Entries))
	}
	if id := page.Entries[0]["id"].(float64); int(id) != 1 {
		t.Fatalf("first entry id = %v, want 1", id)
	}
	// Walking pages covers every entry exactly once.
	seen := 0
	for off := 0; off < total; off += 2 {
		seen += len(getPage(t, "/api/entries?offset="+strconv.Itoa(off)+"&limit=2").Entries)
	}
	if seen != total {
		t.Fatalf("paged walk saw %d entries, want %d", seen, total)
	}
	// Past-the-end pages are empty, not errors.
	if page := getPage(t, "/api/entries?offset=1000000"); len(page.Entries) != 0 || page.Total != total {
		t.Fatalf("past-the-end page = %+v", page)
	}
	// limit=0 is a cheap count probe.
	if page := getPage(t, "/api/entries?limit=0"); len(page.Entries) != 0 || page.Total != total {
		t.Fatalf("limit=0 page = %+v", page)
	}
}

func TestAPIEntriesBadPagination(t *testing.T) {
	for _, path := range []string{
		"/api/entries?offset=x",
		"/api/entries?offset=-1",
		"/api/entries?limit=abc",
		"/api/entries?limit=-5",
		"/api/entries?limit=1000000",
		"/api/entries?offset=1.5",
	} {
		if rec := get(t, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, rec.Code)
		}
	}
}

func TestAPIEntryAndVega(t *testing.T) {
	rec := get(t, "/api/entry/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var e map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	rec = get(t, "/api/entry/0/vega")
	if rec.Code != http.StatusOK {
		t.Fatalf("vega status = %d", rec.Code)
	}
	var spec map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &spec); err != nil {
		t.Fatalf("bad vega JSON: %v", err)
	}
	if spec["mark"] == nil {
		t.Error("vega spec missing mark")
	}
}

func TestNotFound(t *testing.T) {
	for _, path := range []string{"/nope", "/entry/abc", "/entry/999999", "/api/entry/-1"} {
		if rec := get(t, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, rec.Code)
		}
	}
}

func TestHTMLEscaping(t *testing.T) {
	rec := get(t, "/")
	if strings.Contains(rec.Body.String(), "<script>alert") {
		t.Error("unescaped content")
	}
}

func TestReadyzReportsDegradedStore(t *testing.T) {
	// A fresh server of its own: SetDegraded must not leak into the shared
	// testServer used by the other tests. Its own registry makes the
	// nvbench_server_degraded gauge observable.
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Obs = &obs.Instruments{Metrics: reg}
	s := NewWithConfig(testServer.Bench, cfg)
	probe := func() (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code, rec.Body.String()
	}
	gauge := func() int64 { return reg.Snapshot().Gauges[obs.ServerDegraded] }
	if code, body := probe(); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}
	s.SetDegraded(&Degradation{
		Detail: "repaired store: lost 2 entries, salvaged 94",
		Shards: []ShardDegradation{
			{Shard: "07", Lost: 2, Salvaged: 11, Detail: "journal rolled back"},
			{Shard: "1f", Lost: 0, Salvaged: 9},
		},
	})
	code, body := probe()
	if code != http.StatusOK {
		t.Fatalf("/readyz on a degraded store = %d; degraded data is still servable", code)
	}
	if !strings.HasPrefix(body, "degraded: ") || !strings.Contains(body, "lost 2 entries") {
		t.Fatalf("/readyz body = %q, want the degradation detail", body)
	}
	if !strings.Contains(body, "shard 07: lost 2 entries, salvaged 11 (journal rolled back)") ||
		!strings.Contains(body, "shard 1f: lost 0 entries, salvaged 9") {
		t.Fatalf("/readyz body = %q, want per-shard degradation lines", body)
	}
	if got := gauge(); got != 2 {
		t.Fatalf("server_degraded gauge = %d after marking 2 shards, want 2", got)
	}
	s.SetDegraded(nil)
	if code, body := probe(); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz after clearing = %d %q, want 200 ready", code, body)
	}
	if got := gauge(); got != 0 {
		t.Fatalf("server_degraded gauge = %d after clearing, want 0", got)
	}

	// Degradation with no shard breakdown (a bare detail line) still shows:
	// detail line only, gauge pinned to 1.
	s.SetDegraded(&Degradation{Detail: "store repaired: lost 1 entry"})
	if _, body := probe(); !strings.HasPrefix(body, "degraded: store repaired") {
		t.Fatalf("/readyz body = %q, want unsharded degradation detail", body)
	}
	if got := gauge(); got != 1 {
		t.Fatalf("server_degraded gauge = %d for unsharded degradation, want 1", got)
	}

	// Replica failover degradation: failed-over shards and per-replica
	// health lines, gauge counting the failed-over shards.
	s.SetDegraded(&Degradation{
		FailedOver: []string{"03", "1a"},
		Replicas: []ReplicaHealth{
			{Replica: "r0", Healthy: false, BadShards: []string{"03", "1a"}},
			{Replica: "r1", Healthy: true},
		},
	})
	_, body = probe()
	if !strings.HasPrefix(body, "degraded: 2 store shards failed over to a replica") {
		t.Fatalf("/readyz body = %q, want the failover headline", body)
	}
	if !strings.Contains(body, "failed over: 03, 1a (serving from a non-primary replica; run -scrub to heal)") {
		t.Fatalf("/readyz body = %q, want the failed-over line", body)
	}
	if !strings.Contains(body, "replica r0: 2 shard copies failed self-check (03, 1a)") ||
		!strings.Contains(body, "replica r1: healthy") {
		t.Fatalf("/readyz body = %q, want per-replica health lines", body)
	}
	if got := gauge(); got != 2 {
		t.Fatalf("server_degraded gauge = %d with 2 failed-over shards, want 2", got)
	}

	// An all-healthy replica report alone is not degradation.
	s.SetDegraded(&Degradation{Replicas: []ReplicaHealth{{Replica: "r0", Healthy: true}, {Replica: "r1", Healthy: true}}})
	if code, body := probe(); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz with healthy replicas = %d %q, want 200 ready", code, body)
	}
	if got := gauge(); got != 0 {
		t.Fatalf("server_degraded gauge = %d with healthy replicas, want 0", got)
	}
}
