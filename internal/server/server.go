// Package server exposes a synthesized benchmark over HTTP: a browsable
// index of (nl, vis) entries, per-entry pages that render the chart with
// Vega-Lite, and JSON endpoints for programmatic access. It is the
// "benchmark browser" used by `cmd/nvbench -serve`.
//
// The server is hardened for production traffic: every request passes
// through a middleware chain (panic recovery, per-request timeout with
// context propagation, concurrency-limited load shedding), liveness and
// readiness probes are served at /healthz and /readyz, and Run provides
// context-aware graceful shutdown that drains in-flight requests.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/obs"
	"nvbench/internal/render"
	"nvbench/internal/vql"
)

// Config tunes the hardening layers.
type Config struct {
	// RequestTimeout bounds one request end to end; the handler's context
	// is canceled at the deadline and the client gets 503. 0 disables.
	RequestTimeout time.Duration
	// MaxInFlight is the concurrent-request ceiling before the server
	// sheds load with 503 + Retry-After. 0 disables shedding.
	MaxInFlight int
	// DrainTimeout bounds graceful shutdown's wait for in-flight requests.
	DrainTimeout time.Duration
	// Obs provides the metrics registry behind /metrics and the per-route
	// middleware, plus the structured request logger. Nil gives the server
	// a registry of its own (instrumentation is always on; it is too cheap
	// to gate).
	Obs *obs.Instruments
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		RequestTimeout: 10 * time.Second,
		MaxInFlight:    256,
		DrainTimeout:   5 * time.Second,
	}
}

// Server serves one benchmark.
type Server struct {
	Bench   *bench.Benchmark
	cfg     Config
	ready   atomic.Bool
	handler http.Handler
	// etags holds one strong cache validator per entry, positionally
	// aligned with Bench.Entries. Defaults to a hash of each entry's JSON
	// representation; a store-backed server overrides them with the
	// manifest's content hashes via SetEntryETags.
	etags []string
	// byID maps entry ID to its position in Bench.Entries. The two differ
	// on a partially loaded store, where a lost shard leaves ID gaps.
	byID map[int]int
	// degraded, when non-nil, marks the served benchmark as repaired or
	// partially salvaged; /readyz reports it (still 200 — degraded data is
	// servable data).
	degraded atomic.Pointer[Degradation]
	// engine answers /api/query; built over Bench at construction,
	// optionally fed the store's indexes via SetQueryIndexes.
	engine *vql.Engine
	// queryTag is the cache-validator base for /api/query responses,
	// derived from the per-entry validators (see recomputeQueryTag).
	queryTag string
	// ids mints operation IDs for requests that arrive without a usable
	// X-Request-ID, on the instruments' clock so tests are deterministic.
	ids *obs.IDGen
	// entryShards maps each served entry to its owning store shard,
	// positionally aligned with Bench.Entries ("" on an unsharded or
	// store-less server); /api/query's wide event attributes reads to
	// shards through it. See SetEntryShards.
	entryShards []string
}

// ShardDegradation is the damage report for one store shard the server is
// serving around: entries that could not be salvaged, entries that were,
// and an optional free-form cause.
type ShardDegradation struct {
	Shard    string // shard name ("00".."ff")
	Lost     int    // entries lost from this shard
	Salvaged int    // entries kept from this shard after repair
	Detail   string // optional cause ("journal rolled back", "corrupt artifacts", …)
}

// ReplicaHealth is one replica's health line on /readyz when the served
// store keeps per-shard replicas.
type ReplicaHealth struct {
	Replica   string   // replica name ("r0" is the primary)
	Healthy   bool     // every shard copy passed its last self-check
	BadShards []string // shards whose copy failed, in name order
}

// Degradation describes why a serving benchmark is degraded: a one-line
// summary plus, on a sharded store, the per-shard breakdown, and — on a
// replicated store — which shards failed over to a non-primary replica
// and how each replica is doing. The zero value means "not degraded".
type Degradation struct {
	Detail string             // one-line summary, first line of /readyz
	Shards []ShardDegradation // per-shard damage, in shard-name order
	// FailedOver names store shards currently served from a non-primary
	// replica: the data is intact, but the primary copy is damaged until
	// a scrub repairs it.
	FailedOver []string
	// Replicas is the per-replica health of a replicated store; listed on
	// /readyz whenever any shard failed over or any replica is unhealthy.
	Replicas []ReplicaHealth
}

// empty reports whether d carries no degradation at all. A replica list
// that is entirely healthy does not by itself degrade the server.
func (d *Degradation) empty() bool {
	if d == nil {
		return true
	}
	if d.Detail != "" || len(d.Shards) > 0 || len(d.FailedOver) > 0 {
		return false
	}
	for _, rh := range d.Replicas {
		if !rh.Healthy {
			return false
		}
	}
	return true
}

// New builds a server over a benchmark with the default hardening config.
func New(b *bench.Benchmark) *Server { return NewWithConfig(b, DefaultConfig()) }

// NewWithConfig builds a server with explicit hardening settings.
func NewWithConfig(b *bench.Benchmark, cfg Config) *Server {
	if cfg.Obs == nil {
		cfg.Obs = &obs.Instruments{Metrics: obs.NewRegistry()}
	}
	s := &Server{Bench: b, cfg: cfg}
	s.ids = cfg.Obs.IDs
	if s.ids == nil {
		s.ids = obs.NewIDGen(cfg.Obs.Clock)
	}
	s.etags = make([]string, len(b.Entries))
	s.byID = make(map[int]int, len(b.Entries))
	for i, e := range b.Entries {
		s.byID[e.ID] = i
		data, err := json.Marshal(toAPI(e))
		if err != nil {
			// An entry that cannot marshal would fail every handler anyway;
			// an empty validator just disables caching for it.
			continue
		}
		sum := sha256.Sum256(data)
		s.etags[i] = hex.EncodeToString(sum[:])
	}
	s.engine = vql.NewEngine(b)
	s.recomputeQueryTag()
	app := http.NewServeMux()
	app.HandleFunc("/", s.handleIndex)
	app.HandleFunc("/entry/", s.handleEntry)
	app.HandleFunc("/api/entries", s.handleAPIEntries)
	app.HandleFunc("/api/entry/", s.handleAPIEntry)
	app.HandleFunc("/api/query", s.handleAPIQuery)

	// Chain, innermost first: fault injection sits next to the app so
	// injected panics and stalls exercise every outer layer; then the
	// per-request timeout, then load shedding so a saturated pool answers
	// cheaply, then metrics (which must see shed and timed-out requests
	// too), with panic recovery outermost.
	var h http.Handler = s.injectFaults(app)
	h = s.withTimeout(h)
	h = s.withShed(h)
	h = s.withMetrics(h)

	// Probes and the metrics scrape bypass shedding and timeouts: a
	// saturated server must still answer its load balancer and its monitor.
	// The ops surface bypasses them too — it exists to be read during an
	// incident, exactly when shedding is on — but keeps the metrics layer
	// so its requests get route labels, op IDs and wide events.
	root := http.NewServeMux()
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	root.HandleFunc("/metrics", s.handleMetrics)
	root.Handle("/debug/events", s.withMetrics(http.HandlerFunc(s.handleDebugEvents)))
	root.Handle("/", h)
	s.handler = s.withRecover(root)
	s.ready.Store(true)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// SetEntryETags replaces the per-entry cache validators, positionally
// aligned with Bench.Entries — a store-backed server passes the manifest's
// content hashes so clients revalidate against the exact stored artifact
// (a partially loaded manifest stays aligned: lost entries are pruned from
// both sides). Call before serving; it is not safe to call concurrently
// with requests.
func (s *Server) SetEntryETags(tags []string) error {
	if len(tags) != len(s.Bench.Entries) {
		return fmt.Errorf("server: %d etags for %d entries", len(tags), len(s.Bench.Entries))
	}
	s.etags = tags
	s.recomputeQueryTag()
	return nil
}

// SetEntryShards records each served entry's owning store shard,
// positionally aligned with Bench.Entries — a store-backed server passes
// the manifest's shard routing so /api/query's wide event can report which
// shards a query read. Call before serving; not safe concurrently with
// requests.
func (s *Server) SetEntryShards(shards []string) error {
	if len(shards) != len(s.Bench.Entries) {
		return fmt.Errorf("server: %d shards for %d entries", len(shards), len(s.Bench.Entries))
	}
	s.entryShards = shards
	return nil
}

// notModified sets the entry's cache-validator headers and answers an
// If-None-Match hit with 304, reporting whether the response is complete.
// Validators are strong — two entries with the same bytes revalidate
// interchangeably.
func (s *Server) notModified(w http.ResponseWriter, r *http.Request, e *bench.Entry) bool {
	i, ok := s.byID[e.ID]
	if !ok || i >= len(s.etags) || s.etags[i] == "" {
		return false
	}
	return revalidate(w, r, `"`+s.etags[i]+`"`)
}

// revalidate is the one conditional-GET check: it sets ETag to tag and
// Cache-Control: no-cache (clients revalidate every use, so a rebuilt
// store invalidates stale copies immediately), then answers 304 and
// reports true when If-None-Match lists tag or "*".
func revalidate(w http.ResponseWriter, r *http.Request, tag string) bool {
	w.Header().Set("ETag", tag)
	w.Header().Set("Cache-Control", "no-cache")
	for _, c := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == tag || c == "*" {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// Ready reports whether the server accepts benchmark traffic (true from
// construction until shutdown begins).
func (s *Server) Ready() bool { return s.ready.Load() }

// SetDegraded marks the served benchmark as degraded — loaded from a
// repaired or partially salvaged store — with a structured report that
// /readyz serves line by line and the nvbench_server_degraded gauge
// mirrors (number of degraded shards, or 1 for unsharded degradation).
// The server keeps serving: salvaged data beats no data, but orchestrators
// and humans probing readiness see exactly which shards paid. A nil or
// empty report clears the mark. Safe to call concurrently with requests.
func (s *Server) SetDegraded(d *Degradation) {
	g := s.cfg.Obs.Metrics.Gauge(obs.ServerDegraded)
	if d.empty() {
		s.degraded.Store(nil)
		g.Set(0)
		return
	}
	cp := &Degradation{
		Detail:     d.Detail,
		Shards:     append([]ShardDegradation(nil), d.Shards...),
		FailedOver: append([]string(nil), d.FailedOver...),
		Replicas:   append([]ReplicaHealth(nil), d.Replicas...),
	}
	s.degraded.Store(cp)
	n := int64(len(cp.Shards))
	if n == 0 {
		n = int64(len(cp.FailedOver))
	}
	if n == 0 {
		n = 1
	}
	g.Set(n)
}

// Run serves on addr until ctx is canceled, then shuts down gracefully:
// readiness flips to 503 so load balancers stop routing, in-flight
// requests get DrainTimeout to finish, and only then does Run force-close.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run over an existing listener (tests use ephemeral ports).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.ready.Store(false)
		return err
	case <-ctx.Done():
	}
	s.ready.Store(false)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Drain budget exhausted; cut the stragglers loose. The close
		// error is unactionable at this point — we are exiting.
		_ = srv.Close()
		return fmt.Errorf("server: shutdown drain incomplete: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeBytes(s, w, []byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d := s.degraded.Load(); d != nil {
		var sb strings.Builder
		head := d.Detail
		if head == "" {
			if len(d.Shards) > 0 {
				head = fmt.Sprintf("%d store shards damaged", len(d.Shards))
			} else {
				head = fmt.Sprintf("%d store shards failed over to a replica", len(d.FailedOver))
			}
		}
		sb.WriteString("degraded: " + head + "\n")
		for _, sh := range d.Shards {
			fmt.Fprintf(&sb, "  shard %s: lost %d entries, salvaged %d", sh.Shard, sh.Lost, sh.Salvaged)
			if sh.Detail != "" {
				sb.WriteString(" (" + sh.Detail + ")")
			}
			sb.WriteString("\n")
		}
		if len(d.FailedOver) > 0 {
			fmt.Fprintf(&sb, "  failed over: %s (serving from a non-primary replica; run -scrub to heal)\n",
				strings.Join(d.FailedOver, ", "))
		}
		for _, rh := range d.Replicas {
			if rh.Healthy {
				fmt.Fprintf(&sb, "  replica %s: healthy\n", rh.Replica)
				continue
			}
			fmt.Fprintf(&sb, "  replica %s: %d shard copies failed self-check (%s)\n",
				rh.Replica, len(rh.BadShards), strings.Join(rh.BadShards, ", "))
		}
		writeBytes(s, w, []byte(sb.String()))
		return
	}
	writeBytes(s, w, []byte("ready\n"))
}

// handleMetrics serves the registry in the Prometheus text format. The
// render lands in a buffer first so a slow scraper cannot hold the
// registry's read path, and a mid-stream write failure degrades like any
// other response write.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.cfg.Obs.Metrics.WritePrometheus(&buf); err != nil {
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeBytes(s, w, buf.Bytes())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>nvbench browser</title></head><body>")
	fmt.Fprintf(&sb, "<h1>nvbench — %d vis objects, %d (nl, vis) pairs</h1><table border=1 cellpadding=4>",
		len(s.Bench.Entries), s.Bench.NumPairs())
	sb.WriteString("<tr><th>id</th><th>chart</th><th>hardness</th><th>database</th><th>first nl</th></tr>")
	for _, e := range s.Bench.Entries {
		nl := ""
		if len(e.NLs) > 0 {
			nl = e.NLs[0]
		}
		fmt.Fprintf(&sb, `<tr><td><a href="/entry/%d">%d</a></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`,
			e.ID, e.ID, html.EscapeString(e.Chart.String()), html.EscapeString(e.Hardness.String()),
			html.EscapeString(e.DB.Name), html.EscapeString(nl))
	}
	sb.WriteString("</table></body></html>")
	writeBytes(s, w, []byte(sb.String()))
}

// entryByPath resolves an entry from a URL path. The "/vega" suffix is
// only meaningful under /api/entry/; HTML routes pass allowVega=false and
// get a 404 for it.
func (s *Server) entryByPath(path, prefix string, allowVega bool) (*bench.Entry, error) {
	idStr := strings.TrimPrefix(path, prefix)
	if allowVega {
		idStr = strings.TrimSuffix(idStr, "/vega")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, fmt.Errorf("bad entry id %q", idStr)
	}
	i, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("no entry %d", id)
	}
	return s.Bench.Entries[i], nil
}

func (s *Server) handleEntry(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByPath(r.URL.Path, "/entry/", false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if s.notModified(w, r, e) {
		return
	}
	spec, err := s.renderSpec(r.Context(), e)
	if err != nil {
		http.Error(w, "render: "+err.Error(), http.StatusInternalServerError)
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "<h1>entry %d — %s (%s)</h1><p><code>%s</code></p><ul>",
		e.ID, html.EscapeString(e.Chart.String()), html.EscapeString(e.Hardness.String()),
		html.EscapeString(e.Vis.String()))
	for _, nl := range e.NLs {
		fmt.Fprintf(&sb, "<li>%s</li>", html.EscapeString(nl))
	}
	sb.WriteString(`</ul><div id="vis"></div>`)
	page := string(render.HTMLPage(fmt.Sprintf("entry %d", e.ID), spec))
	// Inject the entry header before the chart container.
	page = strings.Replace(page, `<div id="vis"></div>`, sb.String(), 1)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	writeBytes(s, w, []byte(page))
}

// renderSpec renders one entry's Vega-Lite spec as a render stage
// operation under the request's op ID.
func (s *Server) renderSpec(ctx context.Context, e *bench.Entry) (json.RawMessage, error) {
	t := s.cfg.Obs.Begin(ctx, obs.LayerBench, obs.StageRender)
	spec, err := render.VegaLite(e.DB, e.Vis)
	if err != nil {
		t.End("error", "error", err.Error())
	} else {
		t.End("ok")
	}
	return spec, err
}

// apiEntry is the JSON shape of one entry.
type apiEntry struct {
	ID       int      `json:"id"`
	Database string   `json:"database"`
	Domain   string   `json:"domain"`
	Chart    string   `json:"chart"`
	Hardness string   `json:"hardness"`
	VQL      string   `json:"vql"`
	NLs      []string `json:"nl_queries"`
	Manual   bool     `json:"manual_nl"`
}

func toAPI(e *bench.Entry) apiEntry {
	return apiEntry{
		ID: e.ID, Database: e.DB.Name, Domain: e.DB.Domain,
		Chart: e.Chart.String(), Hardness: e.Hardness.String(),
		VQL: e.Vis.String(), NLs: e.NLs, Manual: e.Manual,
	}
}

// Pagination bounds for /api/entries.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// entriesPage is the paginated JSON shape of /api/entries.
type entriesPage struct {
	Total   int        `json:"total"`
	Offset  int        `json:"offset"`
	Limit   int        `json:"limit"`
	Entries []apiEntry `json:"entries"`
}

// pageParam parses one non-negative integer query parameter.
func pageParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q: want a non-negative integer", name, v)
	}
	return n, nil
}

func (s *Server) handleAPIEntries(w http.ResponseWriter, r *http.Request) {
	offset, err := pageParam(r, "offset", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit, err := pageParam(r, "limit", defaultPageLimit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if limit > maxPageLimit {
		http.Error(w, fmt.Sprintf("limit %d exceeds maximum %d", limit, maxPageLimit), http.StatusBadRequest)
		return
	}
	total := len(s.Bench.Entries)
	start := offset
	if start > total {
		start = total
	}
	end := start + limit
	if end > total {
		end = total
	}
	page := entriesPage{Total: total, Offset: offset, Limit: limit, Entries: make([]apiEntry, 0, end-start)}
	for _, e := range s.Bench.Entries[start:end] {
		page.Entries = append(page.Entries, toAPI(e))
	}
	writeJSON(s, w, page)
}

func (s *Server) handleAPIEntry(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByPath(r.URL.Path, "/api/entry/", true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if s.notModified(w, r, e) {
		return
	}
	if strings.HasSuffix(r.URL.Path, "/vega") {
		spec, err := s.renderSpec(r.Context(), e)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeBytes(s, w, spec)
		return
	}
	writeJSON(s, w, toAPI(e))
}

// writeJSON encodes v and writes it in one shot. Encoding happens before
// any byte reaches the wire, so an encode failure still yields a clean
// 500; a mid-stream write failure (client gone) is logged and returned —
// never answered with a late http.Error, which would be a superfluous
// WriteHeader on an already-started response.
func writeJSON(s *Server, w http.ResponseWriter, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	return writeBytes(s, w, append(data, '\n'))
}

// writeBytes writes an already-encoded response body, logging write
// failures (the client went away; nothing else to clean up). The error
// return is for optional inspection — dropping it is allowlisted in the
// errdrop analyzer.
func writeBytes(s *Server, w http.ResponseWriter, b []byte) error {
	if _, err := w.Write(b); err != nil {
		log.Printf("server: write %d bytes: %v", len(b), err)
		return err
	}
	return nil
}
