package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The nil Counter is a
// valid no-op, so call sites never need to guard against a disabled
// registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for counter semantics; Add does not
// enforce it so mirrors of external monotonic sources stay cheap).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Set overwrites the value — for counters that mirror an external
// monotonic source (e.g. the fault plan's per-site fire counts) rather
// than being incremented in place.
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 metric that can go up and down (e.g. in-flight
// requests). The nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bounds (seconds) used for every
// duration metric in the repo: microseconds for parser-scale work up
// through seconds for whole-build stages.
var DefaultLatencyBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1, 5,
}

// Histogram is a fixed-bucket histogram of float64 observations. Bounds
// are upper-inclusive bucket edges; one overflow bucket catches the rest.
// Observe is lock-free; Snapshot is a consistent-enough read for
// monitoring (bucket counts and sum are loaded independently). The nil
// Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// exemplars remembers, per bucket, the most recent exemplar-carrying
	// observation, so a quantile on the exposition links to one concrete
	// operation's wide event.
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1
}

// Exemplar ties one histogram bucket to a concrete operation: the op ID of
// the most recent ObserveEx observation that landed in the bucket, and its
// value.
type Exemplar struct {
	Op    string
	Value float64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Uint64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveEx(v, "") }

// ObserveEx records one observation and, when op is non-empty, makes it
// the containing bucket's exemplar.
func (h *Histogram) ObserveEx(v float64, op string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if op != "" {
		h.exemplars[i].Store(&Exemplar{Op: op, Value: v})
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bucket edges; the implicit last bucket is +Inf
	Counts []uint64  // len(Bounds)+1
	Count  uint64
	Sum    float64
	// Exemplars holds each bucket's most recent exemplar (empty Op = the
	// bucket has none); len(Bounds)+1 entries, or nil when the histogram
	// never saw an ObserveEx.
	Exemplars []Exemplar
}

// Mean returns the average observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket, in the style of Prometheus histogram_quantile.
// Observations in the overflow bucket clamp to the largest finite bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	return h.Bounds[len(h.Bounds)-1]
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if ex := h.exemplars[i].Load(); ex != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]Exemplar, len(h.exemplars))
			}
			s.Exemplars[i] = *ex
		}
	}
	return s
}

// Registry is a concurrent metric namespace. Metrics are identified by
// their full series name — a base name plus an optional canonical label
// set built with L — and are created on first use. All methods are safe
// for concurrent use, and every method on a nil *Registry is a no-op, so
// instrumentation can be wired unconditionally and disabled by passing
// nil.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	hooks    []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// L builds a canonical labeled series name: base{k1="v1",k2="v2"} with
// label keys sorted, so the same logical series resolves to the same
// metric from every call site. Values are escaped for the Prometheus text
// format.
func L(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// labelEscaper escapes label values per the Prometheus text format. One
// shared instance: Replacer builds its lookup machinery lazily on first
// use, so constructing it per call would put an allocation on every L().
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	return labelEscaper.Replace(v)
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (DefaultLatencyBuckets when none are given). Bounds
// of an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// AddGatherHook registers a function run at the start of every Snapshot
// and WritePrometheus call, before metrics are read — the pull seam for
// sources that keep their own counters (e.g. the fault plan's per-site
// stats) and republish them into the registry on scrape.
func (r *Registry) AddGatherHook(f func(*Registry)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// gather runs the registered hooks (outside the registry lock; hooks call
// back into the registry).
func (r *Registry) gather() {
	r.mu.RLock()
	hooks := make([]func(*Registry), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.RUnlock()
	for _, f := range hooks {
		f(r)
	}
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies out every metric after running the gather hooks. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.gather()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// SplitName splits a series name into its base name and the label block
// (including braces; empty when unlabeled).
func SplitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Labels parses the label block of a series name into a map. It inverts L
// for the escape-free values used in this repo.
func Labels(name string) map[string]string {
	_, block := SplitName(name)
	out := map[string]string{}
	block = strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	if block == "" {
		return out
	}
	for _, kv := range strings.Split(block, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		out[k] = strings.Trim(v, `"`)
	}
	return out
}

// mergeLabel inserts an extra label into a series' label block — used to
// add le to histogram bucket lines.
func mergeLabel(labels, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// formatFloat renders a float the way Prometheus text expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): gather hooks first, then every series sorted by
// name with one # TYPE line per metric base name. Deterministic for a
// deterministic metric state, so the output is golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	var sb strings.Builder
	writeFamily(&sb, s.Counters, "counter")
	writeFamily(&sb, s.Gauges, "gauge")
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	lastBase := ""
	for _, name := range names {
		h := s.Histograms[name]
		base, labels := SplitName(name)
		if base != lastBase {
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", base)
			lastBase = base
		}
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&sb, "%s_bucket%s %d%s\n", base, mergeLabel(labels, "le", formatFloat(bound)), cum, exemplarSuffix(h, i))
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(&sb, "%s_bucket%s %d%s\n", base, mergeLabel(labels, "le", "+Inf"), cum, exemplarSuffix(h, len(h.Bounds)))
		fmt.Fprintf(&sb, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum))
		fmt.Fprintf(&sb, "%s_count%s %d\n", base, labels, h.Count)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// exemplarSuffix renders bucket i's exemplar in the OpenMetrics style —
// ` # {op="<id>"} <value>` — or "" when the bucket has none. Plain 0.0.4
// parsers that stop at the sample value are unaffected; histograms that
// never saw an ObserveEx render byte-identically to before exemplars
// existed.
func exemplarSuffix(h HistogramSnapshot, i int) string {
	if i >= len(h.Exemplars) {
		return ""
	}
	ex := h.Exemplars[i]
	if ex.Op == "" {
		return ""
	}
	return ` # {op="` + escapeLabel(ex.Op) + `"} ` + formatFloat(ex.Value)
}

// writeFamily renders one scalar metric family (counters or gauges),
// sorted, with a # TYPE line per base name.
func writeFamily(sb *strings.Builder, vals map[string]int64, typ string) {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	lastBase := ""
	for _, name := range names {
		base, _ := SplitName(name)
		if base != lastBase {
			fmt.Fprintf(sb, "# TYPE %s %s\n", base, typ)
			lastBase = base
		}
		fmt.Fprintf(sb, "%s %d\n", name, vals[name])
	}
}
