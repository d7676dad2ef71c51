// Tests for /api/query: both verbs, the JSON error shape with syntax
// positions, cache validators, obs outcome labels, and the indexed path
// through SetQueryIndexes.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nvbench/internal/vql"
)

// queryGet runs one GET /api/query?q= request.
func queryGet(s *Server, q string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/query?q="+strings.ReplaceAll(q, " ", "+"), nil)
	s.ServeHTTP(rec, req)
	return rec
}

func decodeResult(t *testing.T, rec *httptest.ResponseRecorder) *vql.Result {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var res vql.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return &res
}

func decodeQueryError(t *testing.T, rec *httptest.ResponseRecorder) queryError {
	t.Helper()
	var qe queryError
	if err := json.Unmarshal(rec.Body.Bytes(), &qe); err != nil {
		t.Fatalf("decode error body %q: %v", rec.Body.String(), err)
	}
	return qe
}

func TestAPIQueryGetAndPostAgree(t *testing.T) {
	s, _, _ := newObsServer(t, DefaultConfig())
	db := s.Bench.Entries[0].DB.Name
	q := fmt.Sprintf("SELECT hardness, chart, count(*) FROM entries WHERE db = '%s' GROUP BY 1, 2 ORDER BY 3 DESC", db)

	got := decodeResult(t, queryGet(s, q))
	if len(got.Rows) == 0 || len(got.Columns) != 3 {
		t.Fatalf("unexpected shape: %d rows, columns %v", len(got.Rows), got.Columns)
	}
	if got.Columns[2] != "count(*)" {
		t.Fatalf("columns = %v", got.Columns)
	}

	body := strings.NewReader(`{"query": ` + jsonQuote(q) + `}`)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/query", body)
	s.ServeHTTP(rec, req)
	posted := decodeResult(t, rec)
	if !reflect.DeepEqual(got.Rows, posted.Rows) {
		t.Fatalf("GET and POST disagree:\n%v\n%v", got.Rows, posted.Rows)
	}

	// Determinism: the exact bytes repeat.
	again := queryGet(s, q)
	if again.Body.String() != "" && again.Code == http.StatusOK {
		var res vql.Result
		if err := json.Unmarshal(again.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, got.Rows) {
			t.Fatal("identical query returned different rows")
		}
	}
}

// jsonQuote JSON-quotes a string for embedding in a request body.
func jsonQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // cannot fail on a plain string
	}
	return string(b)
}

func TestAPIQuerySyntaxErrorCarriesPosition(t *testing.T) {
	s, reg, _ := newObsServer(t, DefaultConfig())
	rec := queryGet(s, "SELECT * FORM entries")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	qe := decodeQueryError(t, rec)
	if qe.Position != 10 {
		t.Fatalf("error position = %d, want 10 (%q)", qe.Position, qe.Error)
	}
	if qe.Error == "" {
		t.Fatal("error message empty")
	}
	if n := requestCount(reg, "client_error", "/api/query"); n != 1 {
		t.Fatalf("client_error count = %d, want 1", n)
	}
}

func TestAPIQueryOutcomesAndMethods(t *testing.T) {
	s, reg, _ := newObsServer(t, DefaultConfig())
	if rec := queryGet(s, "SELECT count(*) FROM entries"); rec.Code != http.StatusOK {
		t.Fatalf("good query = %d: %s", rec.Code, rec.Body.String())
	}
	if n := requestCount(reg, "ok", "/api/query"); n != 1 {
		t.Fatalf("ok count = %d, want 1", n)
	}

	// Empty query, bad JSON body, wrong method: all client errors, each
	// with the JSON error shape.
	cases := []*httptest.ResponseRecorder{}
	cases = append(cases, queryGet(s, ""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader("not json")))
	cases = append(cases, rec)
	for i, rec := range cases {
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d, want 400", i, rec.Code)
		}
		if qe := decodeQueryError(t, rec); qe.Error == "" {
			t.Fatalf("case %d: empty error message", i)
		}
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Fatalf("Allow = %q", allow)
	}
	if n := requestCount(reg, "client_error", "/api/query"); n != 3 {
		t.Fatalf("client_error count = %d, want 3", n)
	}
}

func TestAPIQueryETagRevalidates(t *testing.T) {
	s, _, _ := newObsServer(t, DefaultConfig())
	q := "SELECT chart, count(*) FROM entries GROUP BY 1"
	rec := queryGet(s, q)
	tag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || tag == "" {
		t.Fatalf("first query: status %d, etag %q", rec.Code, tag)
	}

	req := httptest.NewRequest(http.MethodGet, "/api/query?q="+strings.ReplaceAll(q, " ", "+"), nil)
	req.Header.Set("If-None-Match", tag)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", rec2.Code)
	}

	// A different query must not share the validator.
	other := queryGet(s, "SELECT hardness, count(*) FROM entries GROUP BY 1")
	if other.Header().Get("ETag") == tag {
		t.Fatal("distinct queries share an ETag")
	}

	// New entry validators (a rebuilt store) invalidate the old tag.
	tags := make([]string, len(s.Bench.Entries))
	for i := range tags {
		tags[i] = fmt.Sprintf("%064d", i)
	}
	if err := s.SetEntryETags(tags); err != nil {
		t.Fatal(err)
	}
	rec3 := queryGet(s, q)
	if rec3.Header().Get("ETag") == tag {
		t.Fatal("rebuilt store kept the old query ETag")
	}
}

// stubIndex serves fixed postings, standing in for a store.Index.
type stubIndex map[string][]string

func (ix stubIndex) Lookup(key string) []string { return ix[key] }

func TestSetQueryIndexesEnablesIndexScan(t *testing.T) {
	s, _, _ := newObsServer(t, DefaultConfig())
	// Fake content hashes, positionally aligned like a manifest's.
	tags := make([]string, len(s.Bench.Entries))
	for i := range tags {
		tags[i] = fmt.Sprintf("%064d", i)
	}
	if err := s.SetEntryETags(tags); err != nil {
		t.Fatal(err)
	}
	db := s.Bench.Entries[0].DB.Name
	ix := stubIndex{}
	for i, e := range s.Bench.Entries {
		ix[e.DB.Name] = append(ix[e.DB.Name], tags[i])
	}
	if err := s.SetQueryIndexes(map[string]vql.Index{"db": ix}); err != nil {
		t.Fatal(err)
	}

	res := decodeResult(t, queryGet(s, fmt.Sprintf("SELECT count(*) FROM entries WHERE db = '%s'", db)))
	if res.Index != "db" {
		t.Fatalf("query used index %q, want db (plan %q)", res.Index, res.Plan)
	}
	if res.Scanned >= len(s.Bench.Entries) {
		t.Fatalf("index scan touched %d of %d rows", res.Scanned, len(s.Bench.Entries))
	}
}

// oldQueryShards is queryShards as it was before the full-scan shard list
// was computed once in SetEntryShards: the reference it must still match.
func oldQueryShards(s *Server, res *vql.Result) ([]string, bool) {
	if len(s.entryShards) == 0 || res.Table != "entries" {
		return nil, false
	}
	set := map[string]bool{}
	if res.SourceRows == nil {
		for _, sh := range s.entryShards {
			if sh != "" {
				set[sh] = true
			}
		}
	} else {
		for _, n := range res.SourceRows {
			if n >= 0 && n < len(s.entryShards) && s.entryShards[n] != "" {
				set[s.entryShards[n]] = true
			}
		}
	}
	shards := make([]string, 0, len(set))
	for sh := range set {
		shards = append(shards, sh)
	}
	sort.Strings(shards)
	failover := false
	if d := s.degraded.Load(); d != nil {
		over := make(map[string]bool, len(d.FailedOver))
		for _, sh := range d.FailedOver {
			over[sh] = true
		}
		for _, sh := range shards {
			if over[sh] {
				failover = true
				break
			}
		}
	}
	return shards, failover
}

func TestQueryShardsMatchesPerQueryScan(t *testing.T) {
	s := New(testServer.Bench)
	// One shard per database, cycling through unsorted names and an
	// unrouted "" (which the reference loop skips), so an indexed query
	// reads fewer shards than a full scan.
	dbSet := map[string]bool{}
	for _, e := range s.Bench.Entries {
		dbSet[e.DB.Name] = true
	}
	dbs := sortedSet(dbSet)
	if len(dbs) < 4 {
		t.Fatalf("test benchmark has %d databases, want at least 4", len(dbs))
	}
	names := []string{"0c", "", "03", "0a", "03"}
	dbShard := map[string]string{}
	for i, db := range dbs {
		dbShard[db] = names[i%len(names)]
	}
	shards := make([]string, len(s.Bench.Entries))
	ix := stubIndex{}
	for i, e := range s.Bench.Entries {
		shards[i] = dbShard[e.DB.Name]
		ix[e.DB.Name] = append(ix[e.DB.Name], s.etags[i])
	}
	if err := s.SetEntryShards(shards); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQueryIndexes(map[string]vql.Index{"db": ix}); err != nil {
		t.Fatal(err)
	}
	scan := "SELECT db, count(*) FROM entries WHERE nl_count >= 2 GROUP BY 1"
	indexed := fmt.Sprintf("SELECT chart, count(*) FROM entries WHERE db = '%s' GROUP BY 1", dbs[3]) // shard 0a
	for _, degraded := range []*Degradation{nil, {FailedOver: []string{"0a"}}, {FailedOver: []string{"0c"}}} {
		s.SetDegraded(degraded)
		for _, q := range []string{scan, indexed} {
			res, err := s.engine.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if (res.SourceRows == nil) != (q == scan) {
				t.Fatalf("%s: SourceRows %v, want a full scan only for the scan query", q, res.SourceRows)
			}
			gotShards, gotOver := s.queryShards(res)
			wantShards, wantOver := oldQueryShards(s, res)
			if !reflect.DeepEqual(gotShards, wantShards) || gotOver != wantOver {
				t.Errorf("degraded %v, %s: got %v %v, want %v %v", degraded, q, gotShards, gotOver, wantShards, wantOver)
			}
			if want := []string{"0a"}; q == indexed && !reflect.DeepEqual(gotShards, want) {
				t.Errorf("indexed query read shards %v, want %v", gotShards, want)
			}
		}
	}
}
