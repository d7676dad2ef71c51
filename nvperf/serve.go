package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/obs"
	"nvbench/internal/render"
	"nvbench/internal/server"
	"nvbench/internal/store"
	"nvbench/internal/vql"
)

// Route kinds of the serve mix, indexing serveRoutes.
const (
	routeAPIEntry = iota
	routeVega
	routeEntryHTML
	routeRevalidate
	routeQueryIndexed
	routeQueryScan
	routeEntries
	routeIndex
)

// routeWeights are the mix's shares in basis points: 70% point lookups,
// 10% revalidations, 10% queries, 9.8% pages, and the whole-benchmark
// index page rare enough (0.2%) that the p99 does not sit on its class.
var routeWeights = []int{3000, 2000, 2000, 1000, 500, 500, 980, 20}

// requestBatch is how many consecutive requests run between two samples
// of the reference work, and how many one throughput sample spans. A run
// sends whole batches.
const requestBatch = 1000

// serveRefRounds is how many timed reference rounds a sample takes after
// each batch (0.05-0.1 s of CPU).
const serveRefRounds = 8

// planLen is the length of the seeded request plan the client cycles.
const planLen = 8192

// request is one planned request.
type request struct {
	chk   *serveChecker // the server it goes to, with its checker
	route int
	entry int    // index into the served entries (entry routes)
	url   string // path and query
	query string // VQL text (query routes)
}

// serveState is one opened, ready-to-serve store: what the CLI's serve
// path holds once it listens.
type serveState struct {
	st  *store.Store
	b   *bench.Benchmark
	m   *store.Manifest
	srv *server.Server
}

// prepareServe builds one corpus per set-up, each from its own seed, and
// saves each as a store, before any timing. One corpus's size follows its
// seed, so serving several keeps a run's figures close from seed to seed.
// It returns the stores' directories and how many corpus seeds
// spider.Generate rejected.
func prepareServe(cfg config, tr *tracer) ([]string, int, error) {
	var dirs []string
	total := 0
	for i, s := range corpusSeeds(cfg.seed, setupsPerRun) {
		c, seed, failures, err := generateCorpus(s)
		total += failures
		if err != nil {
			return nil, total, err
		}
		b, err := bench.Build(c, bench.DefaultOptions())
		if err != nil {
			return nil, total, err
		}
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("serve-store-%d", i))
		tr.begin("store.save")
		st, err := store.Open(dir)
		if err == nil {
			_, err = st.Save(b, store.BuildInfo{Seed: seed})
		}
		tr.end()
		if err != nil {
			return nil, total, err
		}
		dirs = append(dirs, dir)
	}
	return dirs, total, nil
}

// openToReady mirrors cmd/nvbench's store-backed serve path up to the
// point it listens: open, load, the Table 3 report, the server with the
// manifest's validators and shard routing, and the persisted indexes.
func openToReady(dir string, tr *tracer) (*serveState, error) {
	reg := obs.NewRegistry()
	obs.RegisterBase(reg)
	ins := &obs.Instruments{
		Metrics: reg,
		Clock:   obs.RealClock{},
		Log:     obs.NewLogger(io.Discard, obs.RealClock{}),
		Events:  obs.NewEventRecorder(obs.DefaultEventCapacity, obs.RealClock{}),
		IDs:     obs.NewIDGen(obs.RealClock{}),
	}
	s := &serveState{}
	var err error
	tr.begin("store.open")
	s.st, err = store.OpenReplicated(dir)
	tr.end()
	if err != nil {
		return nil, err
	}
	s.st.Instrument(ins)
	tr.begin("store.load")
	s.b, s.m, err = s.st.Load()
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("bench.table3")
	bench.WriteTable3(io.Discard, s.b.Table3(), len(s.b.Entries), s.b.NumPairs())
	bench.WriteFigure10(io.Discard, s.b.TypeHardnessMatrix())
	tr.end()
	tr.begin("server.new")
	cfg := server.DefaultConfig()
	cfg.Obs = ins
	s.srv = server.NewWithConfig(s.b, cfg)
	if err := s.srv.SetEntryETags(s.m.EntryHashes()); err != nil {
		tr.end()
		return nil, err
	}
	err = s.srv.SetEntryShards(s.m.EntryShards())
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("store.load_indexes")
	defer tr.end()
	idx, err := s.st.LoadIndexes()
	if err != nil {
		return nil, err
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("store %s has no query indexes", dir)
	}
	return s, s.srv.SetQueryIndexes(vqlIndexes(idx))
}

func vqlIndexes(idx map[string]*store.Index) map[string]vql.Index {
	out := make(map[string]vql.Index, len(idx))
	for f, ix := range idx {
		out[f] = ix
	}
	return out
}

// planRequests draws the seeded request plan for one server. A
// revalidation replays the ETag of an entry the plan looked up earlier, so
// the client has it.
func planRequests(seed int64, chk *serveChecker) []request {
	b := chk.s.b
	r := rand.New(rand.NewSource(seed))
	dbs, domains := map[string]bool{}, map[string]bool{}
	for _, e := range b.Entries {
		dbs[e.DB.Name], domains[e.DB.Domain] = true, true
	}
	dbNames, domainNames := sortedKeys(dbs), sortedKeys(domains)
	entryURL := func(route, i int) string {
		id := b.Entries[i].ID
		switch route {
		case routeVega:
			return fmt.Sprintf("/api/entry/%d/vega", id)
		case routeEntryHTML:
			return fmt.Sprintf("/entry/%d", id)
		}
		return fmt.Sprintf("/api/entry/%d", id)
	}
	total := 0
	for _, w := range routeWeights {
		total += w
	}
	var looked []int
	plan := make([]request, 0, planLen)
	for len(plan) < planLen {
		pick, route := r.Intn(total), 0
		for pick >= routeWeights[route] {
			pick -= routeWeights[route]
			route++
		}
		if route == routeRevalidate && len(looked) == 0 {
			route = routeAPIEntry
		}
		rq := request{chk: chk, route: route}
		switch route {
		case routeAPIEntry, routeVega, routeEntryHTML:
			rq.entry = r.Intn(len(b.Entries))
			rq.url = entryURL(route, rq.entry)
			looked = append(looked, rq.entry)
		case routeRevalidate:
			rq.entry = looked[r.Intn(len(looked))]
			rq.url = entryURL(routeAPIEntry+r.Intn(3), rq.entry)
		case routeQueryIndexed:
			rq.query = fmt.Sprintf("SELECT hardness, chart, count(*) FROM entries WHERE db = '%s' GROUP BY 1, 2 ORDER BY 3 DESC",
				dbNames[r.Intn(len(dbNames))])
		case routeQueryScan:
			rq.query = fmt.Sprintf("SELECT db, count(*), avg(tokens) FROM entries WHERE domain = '%s' AND nl_count >= %d GROUP BY 1 ORDER BY 2 DESC LIMIT 5",
				domainNames[r.Intn(len(domainNames))], 2+r.Intn(3))
		case routeEntries:
			rq.url = fmt.Sprintf("/api/entries?offset=%d&limit=50", 50*r.Intn(len(b.Entries)/50+1))
		case routeIndex:
			rq.url = "/"
		}
		if rq.query != "" {
			rq.url = "/api/query?q=" + url.QueryEscape(rq.query)
		}
		plan = append(plan, rq)
	}
	return plan
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// serveChecker verifies responses. The first response for each URL is
// checked against the program's own functions (render.VegaLite, a direct
// vql.Engine query, the entry itself); later ones must repeat its bytes.
type serveChecker struct {
	s      *serveState
	engine *vql.Engine
	bodies map[string][]byte // verified body per URL
	etags  []string          // ETag last seen per entry, replayed by revalidations
}

// newServeChecker sets up the checker of a ready server: a direct vql
// engine over the same benchmark and indexes.
func newServeChecker(s *serveState, tr *tracer) (*serveChecker, error) {
	tr.begin("vql.new_engine")
	engine := vql.NewEngine(s.b)
	tr.end()
	idx, err := s.st.LoadIndexes()
	if err != nil {
		return nil, err
	}
	if err := engine.SetIndexes(s.m.EntryHashes(), vqlIndexes(idx)); err != nil {
		return nil, err
	}
	return &serveChecker{s: s, engine: engine, bodies: map[string][]byte{}, etags: make([]string, len(s.b.Entries))}, nil
}

func (c *serveChecker) check(rq request, rec *httptest.ResponseRecorder) error {
	body := rec.Body.Bytes()
	if rq.route == routeRevalidate {
		if rec.Code != http.StatusNotModified || len(body) != 0 {
			return fmt.Errorf("%s with ETag %s: status %d, %d body bytes; want 304 and none", rq.url, c.etags[rq.entry], rec.Code, len(body))
		}
		return nil
	}
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d", rq.url, rec.Code)
	}
	if rq.route <= routeEntryHTML {
		c.etags[rq.entry] = rec.Header().Get("ETag")
	}
	if want, ok := c.bodies[rq.url]; ok {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("%s: body differs from the first response's", rq.url)
		}
		return nil
	}
	if err := c.verify(rq, rec); err != nil {
		return fmt.Errorf("%s: %w", rq.url, err)
	}
	c.bodies[rq.url] = slices.Clone(body)
	return nil
}

// verify checks a first response against what the program says it must be.
func (c *serveChecker) verify(rq request, rec *httptest.ResponseRecorder) error {
	body := rec.Body.Bytes()
	b := c.s.b
	switch rq.route {
	case routeAPIEntry, routeVega, routeEntryHTML:
		e := b.Entries[rq.entry]
		if want := `"` + c.s.m.EntryHashes()[rq.entry] + `"`; rec.Header().Get("ETag") != want {
			return fmt.Errorf("ETag %s, want the manifest's %s", rec.Header().Get("ETag"), want)
		}
		switch rq.route {
		case routeAPIEntry:
			var got struct {
				ID       int      `json:"id"`
				Database string   `json:"database"`
				VQL      string   `json:"vql"`
				NLs      []string `json:"nl_queries"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			if got.ID != e.ID || got.Database != e.DB.Name || got.VQL != e.Vis.String() || !slices.Equal(got.NLs, e.NLs) {
				return fmt.Errorf("entry JSON does not match entry %d", e.ID)
			}
		case routeVega:
			want, err := render.VegaLite(e.DB, e.Vis)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, want) {
				return fmt.Errorf("Vega-Lite body differs from render.VegaLite")
			}
		case routeEntryHTML:
			if !bytes.Contains(body, []byte(html.EscapeString(e.Vis.String()))) {
				return fmt.Errorf("page lacks the entry's VQL")
			}
			for _, nl := range e.NLs {
				if !bytes.Contains(body, []byte(html.EscapeString(nl))) {
					return fmt.Errorf("page lacks NL %q", nl)
				}
			}
		}
	case routeQueryIndexed, routeQueryScan:
		var got struct {
			Rows     json.RawMessage `json:"rows"`
			RowCount int             `json:"row_count"`
			Index    string          `json:"index"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := c.engine.Query(rq.query)
		if err != nil {
			return err
		}
		wantRows, err := json.Marshal(want.Rows)
		if err != nil {
			return err
		}
		var gotRows bytes.Buffer
		if err := json.Compact(&gotRows, got.Rows); err != nil {
			return err
		}
		if !bytes.Equal(gotRows.Bytes(), wantRows) || got.RowCount != want.RowCount || got.Index != want.Index {
			return fmt.Errorf("rows differ from a direct vql query")
		}
		if (rq.route == routeQueryIndexed) != (got.Index == "db") {
			return fmt.Errorf("plan used index %q", got.Index)
		}
	case routeEntries:
		var got struct {
			Total   int `json:"total"`
			Offset  int `json:"offset"`
			Entries []struct {
				ID int `json:"id"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Total != len(b.Entries) || got.Offset+len(got.Entries) > len(b.Entries) {
			return fmt.Errorf("page total %d, offset %d, %d entries", got.Total, got.Offset, len(got.Entries))
		}
		for i, e := range got.Entries {
			if e.ID != b.Entries[got.Offset+i].ID {
				return fmt.Errorf("page entry %d has id %d", got.Offset+i, e.ID)
			}
		}
	case routeIndex:
		if !bytes.Contains(body, []byte(fmt.Sprintf("%d vis objects, %d (nl, vis) pairs", len(b.Entries), b.NumPairs()))) {
			return fmt.Errorf("index page lacks the benchmark's counts")
		}
	}
	return nil
}

// newRequest builds a planned request as the client sends it.
func (rq request) newRequest() *http.Request {
	req := httptest.NewRequest(http.MethodGet, rq.url, nil)
	if rq.route == routeRevalidate {
		req.Header.Set("If-None-Match", rq.chk.etags[rq.entry])
	}
	return req
}

// interleave merges the servers' plans request by request.
func interleave(plans [][]request) []request {
	var out []request
	for i := range planLen {
		for _, p := range plans {
			out = append(out, p[i])
		}
	}
	return out
}

func runServe(cfg config, tr *tracer) (*report, error) {
	dirs, failures, err := prepareServe(cfg, tr)
	if err != nil {
		return nil, err
	}
	var diskFiles, diskBytes int64
	if tr != nil {
		for _, dir := range dirs {
			f, b, err := diskUsage(dir)
			if err != nil {
				return nil, err
			}
			diskFiles, diskBytes = diskFiles+f, diskBytes+b
		}
	}
	// Each set-up opens its own store; every server stays up and takes its
	// share of the requests.
	var checkers []*serveChecker
	var plans [][]request
	work := newRefWork()
	setupRef := newYardstick(work, setupRefRounds)
	var setups []time.Duration
	for i, dir := range dirs {
		runtime.GC()
		t0 := cpuNow()
		s, err := openToReady(dir, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuNow()-t0)
		setupRef.sample()
		chk, err := newServeChecker(s, tr)
		if err != nil {
			return nil, err
		}
		checkers = append(checkers, chk)
		plans = append(plans, planRequests(cfg.seed+int64(i), chk))
	}
	plan := interleave(plans)
	rep := &report{metrics: map[string]float64{}}
	if tr != nil {
		traceServe(cfg, tr, plan, rep)
		entries := 0
		for _, chk := range checkers {
			entries += len(chk.s.b.Entries)
		}
		m := rep.metrics
		m["spider.generate_failures"] = float64(failures)
		m["store.save_ms"] = ms(median(tr.layer("store.save").durs))
		m["store.save_files"] = float64(diskFiles) / float64(len(dirs))
		m["store.save_bytes"] = float64(diskBytes) / float64(len(dirs))
		m["store.disk_bytes_per_entry"] = float64(diskBytes) / float64(entries)
		rep.finish(setupRef.scaledAll(setups), liveHeapMB(checkers))
		return rep, nil
	}

	// An operation is one request as the in-process client makes it:
	// building the request and the server handling it. The reference work
	// is sampled after every batch of requests.
	opRef := newYardstick(work, serveRefRounds)
	var durs []time.Duration
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline) || i%requestBatch != 0; i++ {
		if i > 0 && i%requestBatch == 0 {
			opRef.sample()
		}
		rq := plan[i%len(plan)]
		rec := httptest.NewRecorder()
		t0 := cpuNow()
		rq.chk.s.srv.ServeHTTP(rec, rq.newRequest())
		durs = append(durs, cpuNow()-t0)
		rep.check(rq.chk.check(rq, rec))
	}
	opRef.sample()
	// Throughput is taken over the batches; one request's rate is only its
	// latency inverted.
	var scaled []time.Duration
	var units []float64
	var batches []time.Duration
	for i := 0; i < len(durs); i += requestBatch {
		batch := durs[i : i+requestBatch]
		for _, d := range batch {
			scaled = append(scaled, opRef.scaled(d, i/requestBatch))
		}
		units = append(units, float64(len(batch)))
		batches = append(batches, opRef.scaled(sum(batch), i/requestBatch))
	}
	rep.metrics["op_scaled_p50_ms"] = ms(median(scaled))
	rep.metrics["throughput_scaled_per_s"] = medianRate(units, batches)
	rep.finish(setupRef.scaledAll(setups), liveHeapMB(checkers))
	logUnscaled(durs, opRef)
	return rep, nil
}

// traceServe sends the plan with a span per request and one around the
// server inside it, after a first pass in alloc mode; then it times the
// render and vql layers directly on the plan's entries and queries.
func traceServe(cfg config, tr *tracer, plan []request, rep *report) {
	m := rep.metrics
	for _, name := range []string{"store.open", "store.load", "store.load_indexes", "bench.table3", "vql.new_engine", "server.new"} {
		m[name+"_ms"] = ms(median(tr.layer(name).durs))
	}
	send := func(rq request) *httptest.ResponseRecorder {
		tr.begin("request")
		defer tr.end()
		rec := httptest.NewRecorder()
		req := rq.newRequest()
		tr.begin("server." + serveRoutes[rq.route])
		rq.chk.s.srv.ServeHTTP(rec, req)
		tr.end()
		return rec
	}
	tr.allocs = true
	for _, rq := range plan {
		rep.check(rq.chk.check(rq, send(rq)))
	}
	tr.allocs = false

	respBytes := make([]int, len(serveRoutes))
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		rq := plan[i%len(plan)]
		rec := send(rq)
		respBytes[rq.route] += rec.Body.Len()
		rep.check(rq.chk.check(rq, rec))
	}
	for i, r := range serveRoutes {
		a := tr.layer("server." + r)
		p := "server." + r + "."
		m[p+"p50_us"] = us(median(a.durs))
		m[p+"p99_us"] = us(quantile(a.durs, 0.99))
		m[p+"allocs_per_req"] = float64(a.objs) / float64(max(a.allocSpans, 1))
		m[p+"resp_bytes"] = float64(respBytes[i]) / float64(max(a.count, 1))
	}
	m["serve.op_p99_ms"] = ms(quantile(tr.layer("request").durs, 0.99))
	m["serve.coverage_ratio"] = tr.coverage("request")

	var scanned, rows int
	for _, rq := range plan {
		switch rq.route {
		case routeVega:
			e := rq.chk.s.b.Entries[rq.entry]
			tr.begin("render.vegalite")
			_, err := render.VegaLite(e.DB, e.Vis)
			tr.end()
			rep.check(err)
		case routeQueryIndexed, routeQueryScan:
			tr.begin("vql." + serveRoutes[rq.route])
			res, err := rq.chk.engine.Query(rq.query)
			tr.end()
			rep.check(err)
			if err == nil {
				scanned += res.Scanned
				rows += res.RowCount
			}
		}
	}
	m["render.vegalite_us_p50"] = us(median(tr.layer("render.vegalite").durs))
	m["vql.query_indexed_us_p50"] = us(median(tr.layer("vql.query_indexed").durs))
	m["vql.query_scan_us_p50"] = us(median(tr.layer("vql.query_scan").durs))
	m["vql.scanned_per_row"] = float64(scanned) / float64(max(rows, 1))
}

// diskUsage counts the regular files under dir and their bytes.
func diskUsage(dir string) (files, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}
