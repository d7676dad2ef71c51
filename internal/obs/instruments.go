package obs

import (
	"context"
	"time"
)

// Canonical metric names. Every exported series in the repo is built from
// these bases (plus labels via L), so the README metric table, the golden
// tests, and the wiring sites stay in sync.
const (
	// StageHistogram times one pipeline stage execution, labeled
	// stage=sqlparse|treeedit|execute|deepeye|nledit|render|query.
	StageHistogram = "nvbench_stage_seconds"

	// Bench pipeline counters.
	PairsSynthesized    = "nvbench_pairs_synthesized_total"
	CacheHits           = "nvbench_cache_hits_total"
	CacheMisses         = "nvbench_cache_misses_total"
	CacheWriteErrors    = "nvbench_cache_write_errors_total"
	Quarantined         = "nvbench_quarantined_total"
	Retries             = "nvbench_retries_total"
	ClassifierFallbacks = "nvbench_classifier_fallbacks_total"

	// Fault-injection counters, labeled site= (and kind= for injections).
	FaultCalls      = "nvbench_fault_calls_total"
	FaultInjections = "nvbench_fault_injections_total"

	// Store durations (labeled op=save|load|repair|scrub) and journal recovery
	// outcomes (labeled action=rolled_forward|rolled_back).
	StoreSeconds = "nvbench_store_seconds"
	StoreJournal = "nvbench_store_journal_total"

	// Replicated-store health: scrub cycles run, artifact copies rewritten
	// from a verified replica, read failovers taken, and a per-replica
	// health gauge (labeled replica=r0..; 1 = every shard copy passed its
	// last self-check).
	StoreScrubCycles    = "nvbench_store_scrub_cycles_total"
	StoreScrubRepaired  = "nvbench_store_scrub_repaired_total"
	StoreFailovers      = "nvbench_store_failovers_total"
	StoreReplicaHealthy = "nvbench_store_replica_healthy"

	// HTTP server metrics: requests labeled route= and outcome=, latency
	// labeled route=, plus shed/timeout totals and the in-flight gauge.
	HTTPRequests = "nvbench_http_requests_total"
	HTTPSeconds  = "nvbench_http_seconds"
	HTTPInFlight = "nvbench_http_in_flight"
	HTTPShed     = "nvbench_http_shed_total"
	HTTPTimeouts = "nvbench_http_timeouts_total"

	// ServerDegraded gauges how many store shards the server is currently
	// serving around (0 = fully healthy; see server.SetDegraded).
	ServerDegraded = "nvbench_server_degraded"
)

// Pipeline stage names used as the stage= label of StageHistogram, in
// pipeline order.
const (
	StageSQLParse = "sqlparse"
	StageTreeEdit = "treeedit"
	StageExecute  = "execute"
	StageDeepEye  = "deepeye"
	StageNLEdit   = "nledit"
	StageRender   = "render"
	StageQuery    = "query"
)

// Stages lists the pipeline stage names in execution order, for stable
// iteration in timing tables and tests (query runs at serve time, after
// the build pipeline).
var Stages = []string{StageSQLParse, StageTreeEdit, StageExecute, StageDeepEye, StageNLEdit, StageRender, StageQuery}

// StoreOps lists the op= label values of StoreSeconds, in protocol order:
// the store entry points internal/store times.
var StoreOps = []string{"save", "load", "repair", "scrub"}

// HTTPRoutes lists the bounded route= label set the server middleware emits
// for HTTPSeconds and HTTPRequests (see server.routeLabel); the server's
// route-drift test pins the two together.
var HTTPRoutes = []string{"/", "/api/entries", "/api/entry/:id", "/api/entry/:id/vega", "/api/query", "/debug/events", "/entry/:id", "other"}

// opSeries maps a timed operation's layer and site to the histogram series
// its End observes: bench stages feed StageHistogram, store entry points
// StoreSeconds, HTTP routes HTTPSeconds and VQL queries the query stage.
// Names are precomputed so the per-pair and per-request paths skip label
// assembly. A site not listed here (the bench "pair" operation, the store's
// per-shard shard_save, shard_load and shard_repair) records an event but
// no series, so timing an operation never adds one to /metrics.
var opSeries = map[string]map[string]string{
	LayerBench: labeled(StageHistogram, "stage", Stages),
	LayerStore: labeled(StoreSeconds, "op", StoreOps),
	LayerHTTP:  labeled(HTTPSeconds, "route", HTTPRoutes),
	LayerVQL:   labeled(StageHistogram, "stage", []string{StageQuery}),
}

// labeled maps each value to the series base{key="value"}.
func labeled(base, key string, values []string) map[string]string {
	m := make(map[string]string, len(values))
	for _, v := range values {
		m[v] = L(base, key, v)
	}
	return m
}

// RegisterBase pre-creates the canonical pipeline, cache, and server
// series in a registry at zero, so a /metrics scrape shows the full schema
// even before the first build or request touches a series.
func RegisterBase(r *Registry) {
	if r == nil {
		return
	}
	for _, stage := range Stages {
		r.Histogram(L(StageHistogram, "stage", stage))
	}
	for _, op := range StoreOps {
		r.Histogram(L(StoreSeconds, "op", op))
	}
	for _, route := range HTTPRoutes {
		r.Histogram(L(HTTPSeconds, "route", route))
	}
	for _, name := range []string{
		PairsSynthesized, CacheHits, CacheMisses, CacheWriteErrors,
		Quarantined, Retries, ClassifierFallbacks,
		StoreScrubCycles, StoreScrubRepaired, StoreFailovers,
		HTTPShed, HTTPTimeouts,
	} {
		r.Counter(name)
	}
	r.Gauge(HTTPInFlight)
	r.Gauge(ServerDegraded)
	r.Gauge(L(StoreReplicaHealthy, "replica", "r0"))
	// Go runtime metrics refresh on every scrape via a gather hook; the
	// GC pause histogram is seeded here so the schema is scrapeable before
	// the first collection.
	r.Histogram(GoGCPauseSeconds)
	r.AddGatherHook(runtimeHook())
}

// Instruments bundles the observability handles a layer needs: a metrics
// registry, a clock, an optional structured logger, a wide-event recorder
// and an op ID generator. The zero value and the nil pointer are both
// fully usable — every method degrades to a no-op (with RealClock as the
// fallback clock) — so packages thread one *Instruments through
// unconditionally.
type Instruments struct {
	Metrics *Registry
	Clock   Clock
	Log     *Logger
	// Events receives one wide event per operation per layer (nil disables
	// recording; emission stays wired).
	Events *EventRecorder
	// IDs mints operation IDs for layers that originate operations (nil
	// falls back to the package default generator on the real clock).
	IDs *IDGen
}

// clock returns the configured clock, falling back to RealClock.
func (in *Instruments) clock() Clock {
	if in != nil && in.Clock != nil {
		return in.Clock
	}
	return RealClock{}
}

// Timing is one timed operation in flight, opened by Begin. The zero
// Timing (from nil Instruments) records nothing.
type Timing struct {
	in          *Instruments
	op          string
	layer, site string
	start       time.Time
}

// Begin opens a timed operation at site in layer: it stamps the start from
// the instrument clock and takes the op ID from ctx. Usage:
//
//	t := in.Begin(ctx, obs.LayerBench, obs.StageTreeEdit)
//	defer t.End("ok")
func (in *Instruments) Begin(ctx context.Context, layer, site string) Timing {
	if in == nil {
		return Timing{}
	}
	return Timing{in: in, op: OpID(ctx), layer: layer, site: site, start: in.clock().Now()}
}

// End closes the operation with its single record: it reads the clock
// once, observes the layer/site histogram (see opSeries) with the op ID as
// exemplar, and emits one wide event timed from the start. kv holds
// alternating extra field keys and values; keys must be canonical
// lowercase_underscore identifiers (obslabel checks literal keys). Calls
// after the first are no-ops.
func (t *Timing) End(outcome string, kv ...string) {
	in := t.in
	if in == nil {
		return
	}
	t.in = nil
	d := in.clock().Now().Sub(t.start)
	if name := opSeries[t.layer][t.site]; name != "" && in.Metrics != nil {
		in.Metrics.Histogram(name).ObserveEx(d.Seconds(), t.op)
	}
	in.Events.record(Event{Op: t.op, Layer: t.layer, Site: t.site, Outcome: outcome, Time: t.start, Duration: d}, kv)
}

// NewOp returns ctx carrying an operation ID, minting one from the
// configured generator (package default when unset) unless the context
// already carries one.
func (in *Instruments) NewOp(ctx context.Context) (context.Context, string) {
	if id := OpID(ctx); id != "" {
		return ctx, id
	}
	var g *IDGen // nil falls back to the package default
	if in != nil {
		g = in.IDs
	}
	id := g.Next()
	return WithOpID(ctx, id), id
}

// Inc adds one to the named counter.
func (in *Instruments) Inc(name string) { in.Add(name, 1) }

// SetGauge sets the named gauge to v.
func (in *Instruments) SetGauge(name string, v int64) {
	if in == nil || in.Metrics == nil {
		return
	}
	in.Metrics.Gauge(name).Set(v)
}

// Add adds n to the named counter.
func (in *Instruments) Add(name string, n int64) {
	if in == nil || in.Metrics == nil || n == 0 {
		return
	}
	in.Metrics.Counter(name).Add(n)
}

// Logf emits a structured log line when a logger is configured.
func (in *Instruments) Logf(msg string, kv ...any) {
	if in == nil {
		return
	}
	in.Log.Log(msg, kv...)
}
