// Tests for the ops surface: X-Request-ID propagation, the per-request
// wide event, /debug/events filtering, and the end-to-end exemplar path
// from a request to the /metrics exposition.

package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/fault"
	"nvbench/internal/obs"
	"nvbench/internal/spider"
)

// newDebugServer is newObsServer plus a wide-event recorder and a
// deterministic op-ID generator, so tests can assert exact minted IDs and
// inspect the events a request leaves behind.
func newDebugServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	corpus, err := spider.Generate(spider.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterBase(reg)
	clock := obs.NewManualClock(time.Unix(0, 0x1234).UTC())
	cfg.Obs = &obs.Instruments{
		Metrics: reg,
		Clock:   obs.RealClock{},
		Log:     obs.NewLogger(io.Discard, clock),
		Events:  obs.NewEventRecorder(64, clock),
		IDs:     obs.NewIDGen(clock),
	}
	return NewWithConfig(b, cfg), reg
}

func getWithRequestID(s *Server, path, id string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	s.ServeHTTP(rec, req)
	return rec
}

func decodeEventsPage(t *testing.T, rec *httptest.ResponseRecorder) debugEventsPage {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/events = %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var page debugEventsPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("decode events page: %v", err)
	}
	return page
}

func TestRequestIDMintedDeterministically(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	if got, want := doGet(s, "/").Header().Get("X-Request-ID"), "0000000000001234-0001"; got != want {
		t.Fatalf("first minted ID = %q, want %q", got, want)
	}
	if got, want := doGet(s, "/").Header().Get("X-Request-ID"), "0000000000001234-0002"; got != want {
		t.Fatalf("second minted ID = %q, want %q", got, want)
	}
}

func TestRequestIDInboundKeptAndWideEventRecorded(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	rec := getWithRequestID(s, "/", "my-op-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("/ = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "my-op-1" {
		t.Fatalf("inbound ID not echoed: %q", got)
	}

	// The request left exactly one HTTP-layer wide event, joinable by op,
	// and /debug/events?op= finds it.
	page := decodeEventsPage(t, doGet(s, "/debug/events?op=my-op-1"))
	if page.Count != 1 || len(page.Events) != 1 {
		t.Fatalf("op filter found %d events: %+v", page.Count, page.Events)
	}
	e := page.Events[0]
	if e.Layer != obs.LayerHTTP || e.Site != "/" || e.Outcome != "ok" {
		t.Fatalf("wide event = %+v", e)
	}
	if e.Field("method") != "GET" || e.Field("status") != "200" {
		t.Fatalf("wide event fields = %v", e.Fields)
	}
	if n, err := strconv.ParseInt(e.Field("bytes"), 10, 64); err != nil || n <= 0 {
		t.Fatalf("bytes field = %q", e.Field("bytes"))
	}
}

func TestRequestIDHostileInboundReplaced(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	for _, hostile := range []string{"has space", "inject\"quote", strings.Repeat("x", 65)} {
		got := getWithRequestID(s, "/", hostile).Header().Get("X-Request-ID")
		if got == hostile || got == "" {
			t.Errorf("hostile inbound %q answered with %q, want a fresh minted ID", hostile, got)
		}
		if obs.SanitizeOpID(got) != got {
			t.Errorf("minted replacement %q is not itself well-formed", got)
		}
	}
}

func TestDebugEventsFilters(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	doGet(s, "/")
	doGet(s, "/entry/banana") // 404 → client_error

	page := decodeEventsPage(t, doGet(s, "/debug/events"))
	if page.Total < 2 || page.Count < 2 {
		t.Fatalf("unfiltered page total=%d count=%d", page.Total, page.Count)
	}

	page = decodeEventsPage(t, doGet(s, "/debug/events?outcome=client_error"))
	if page.Count != 1 || page.Events[0].Site != "/entry/:id" {
		t.Fatalf("outcome filter = %+v", page.Events)
	}

	page = decodeEventsPage(t, doGet(s, "/debug/events?route=%2Fentry%2F%3Aid"))
	if page.Count != 1 || page.Events[0].Outcome != "client_error" {
		t.Fatalf("route filter = %+v", page.Events)
	}

	// A synthetic slow store operation is the only one above a high floor.
	clock := obs.NewManualClock(time.Unix(0, 0))
	slow := &obs.Instruments{Clock: clock, Events: s.cfg.Obs.Events}
	op := slow.Begin(obs.WithOpID(context.Background(), "slow-op"), obs.LayerStore, "save")
	clock.Advance(2 * time.Second)
	op.End("ok")
	page = decodeEventsPage(t, doGet(s, "/debug/events?min_ms=1500"))
	if page.Count != 1 || page.Events[0].Op != "slow-op" {
		t.Fatalf("min_ms filter = %+v", page.Events)
	}
	page = decodeEventsPage(t, doGet(s, "/debug/events?min_ms=1500&layer=http"))
	if page.Count != 0 {
		t.Fatalf("combined filter = %+v", page.Events)
	}
}

func TestDebugEventsBadMinMS(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	for _, bad := range []string{"abc", "-1", "1e", "NaN", "inf", "1e300"} {
		if rec := doGet(s, "/debug/events?min_ms="+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("min_ms=%q = %d, want 400", bad, rec.Code)
		}
	}
}

func TestDebugEventsWithoutRecorder(t *testing.T) {
	// A server built without an event recorder still answers with an
	// empty, well-formed page — never a null events array.
	s, _, _ := newObsServer(t, DefaultConfig())
	page := decodeEventsPage(t, doGet(s, "/debug/events"))
	if page.Total != 0 || page.Count != 0 || page.Events == nil {
		t.Fatalf("recorderless page = %+v", page)
	}
}

// TestServerFaultEventCarriesRequestOp checks that an injection fired at
// the server site is recorded under the request's op ID, so
// /debug/events?op= joins the fault to the request it slowed.
func TestServerFaultEventCarriesRequestOp(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	defer fault.Instrument(s.cfg.Obs)()
	plan, err := fault.ParsePlan("server:latency:1:1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Activate(plan)()
	if rec := getWithRequestID(s, "/", "abc"); rec.Code != http.StatusOK {
		t.Fatalf("/ under a latency fault = %d", rec.Code)
	}
	var faults []obs.Event
	for _, e := range decodeEventsPage(t, doGet(s, "/debug/events?op=abc")).Events {
		if e.Layer == obs.LayerFault {
			faults = append(faults, e)
		}
	}
	if len(faults) != 1 || faults[0].Site != fault.SiteServer || faults[0].Field("kind") != "latency" {
		t.Fatalf("fault events for op abc = %+v, want the one server latency injection", faults)
	}
}

func TestAPIQueryWideEventShardsAndFailover(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	shards := make([]string, len(s.Bench.Entries))
	for i := range shards {
		shards[i] = []string{"00", "01"}[i%2]
	}
	if err := s.SetEntryShards(shards); err != nil {
		t.Fatal(err)
	}

	q := "SELECT db FROM entries LIMIT 3"
	rec := queryGet(s, q)
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/query = %d, body %s", rec.Code, rec.Body.String())
	}
	op := rec.Header().Get("X-Request-ID")
	events := s.cfg.Obs.Events.Events(obs.EventFilter{Op: op, Layer: obs.LayerVQL})
	if len(events) != 1 {
		t.Fatalf("query emitted %d vql events", len(events))
	}
	e := events[0]
	if e.Site != "query" || e.Outcome != "ok" {
		t.Fatalf("vql event = %+v", e)
	}
	if e.Field("shards") == "" || e.Field("rows") == "" || e.Field("scanned") == "" {
		t.Fatalf("vql event fields = %v", e.Fields)
	}
	if got := e.Field("failover"); got != "false" {
		t.Fatalf("failover = %q before degradation", got)
	}

	// A shard served from a replica marks queries that touch it.
	s.SetDegraded(&Degradation{FailedOver: []string{"00"}})
	rec = queryGet(s, q)
	op = rec.Header().Get("X-Request-ID")
	events = s.cfg.Obs.Events.Events(obs.EventFilter{Op: op, Layer: obs.LayerVQL})
	if len(events) != 1 || events[0].Field("failover") != "true" {
		t.Fatalf("post-failover vql event = %+v", events)
	}
	if !strings.Contains(" "+events[0].Field("shards")+" ", " 00 ") {
		t.Fatalf("shards field %q does not include the failed-over shard", events[0].Field("shards"))
	}
}

func TestExemplarReachesMetricsScrape(t *testing.T) {
	s, _ := newDebugServer(t, DefaultConfig())
	op := doGet(s, "/").Header().Get("X-Request-ID")
	if op == "" {
		t.Fatal("no X-Request-ID on response")
	}
	body := doGet(s, "/metrics").Body.String()
	marker := `# {op="` + op + `"}`
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, marker) {
			if !strings.Contains(line, "nvbench_http_seconds_bucket") ||
				!strings.Contains(line, `route="/"`) {
				t.Fatalf("exemplar on unexpected line: %s", line)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("scrape missing exemplar %q:\n%s", marker, body)
	}
}

func TestDebugRoutesOutcomeLabels(t *testing.T) {
	s, reg := newDebugServer(t, DefaultConfig())
	doGet(s, "/debug/events")
	doGet(s, "/debug/events?min_ms=abc")
	if rec := doGet(s, "/debug/dash"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/dash = %d, want 404", rec.Code)
	}
	if got := requestCount(reg, "ok", "/debug/events"); got != 1 {
		t.Errorf("ok /debug/events count = %d", got)
	}
	if got := requestCount(reg, "client_error", "/debug/events"); got != 1 {
		t.Errorf("client_error /debug/events count = %d", got)
	}
	if got := requestCount(reg, "client_error", "other"); got != 1 {
		t.Errorf("client_error other count = %d", got)
	}
}
