package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"
)

// maxKeptSpans bounds the raw spans a traced run keeps for its trace file;
// the per-name aggregates cover every span regardless.
const maxKeptSpans = 200_000

// tracer records spans the benchmark opens around its own calls into the
// program's layers. Spans nest by call order on one goroutine: a span's
// self time is its duration minus the time its child spans cover. In alloc
// mode it accounts heap bytes and objects allocated per span instead of
// time, so allocation reads never land inside a timed span.
type tracer struct {
	origin time.Time
	stack  []openSpan
	agg    map[string]*layerAgg
	kept   []spanRecord
	nextID int
	allocs bool
	sample []metrics.Sample
}

type openSpan struct {
	id, parent  int
	name        string
	start       time.Time
	child       time.Duration
	bytes, objs uint64 // heap counters at begin (alloc mode)
	childBytes  uint64
	childObjs   uint64
}

// layerAgg aggregates every span of one name.
type layerAgg struct {
	count int
	self  time.Duration
	durs  []time.Duration
	// Alloc mode: spans seen and their self allocations.
	allocSpans  int
	bytes, objs uint64
}

// spanRecord is one finished span for the trace file.
type spanRecord struct {
	name       string
	id, parent int
	start, dur time.Duration
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		agg:    map[string]*layerAgg{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}},
	}
}

// begin opens a span named name as a child of the innermost open span.
// A nil tracer records nothing.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.nextID++
	sp := openSpan{id: t.nextID, parent: parent, name: name}
	if t.allocs {
		sp.bytes, sp.objs = t.readAllocs()
	}
	sp.start = time.Now()
	t.stack = append(t.stack, sp)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	n := len(t.stack) - 1
	sp := t.stack[n]
	t.stack = t.stack[:n]
	a := t.agg[sp.name]
	if a == nil {
		a = &layerAgg{}
		t.agg[sp.name] = a
	}
	if t.allocs {
		b, o := t.readAllocs()
		db, do := b-sp.bytes, o-sp.objs
		a.allocSpans++
		a.bytes += db - min(sp.childBytes, db)
		a.objs += do - min(sp.childObjs, do)
		if n > 0 {
			t.stack[n-1].childBytes += db
			t.stack[n-1].childObjs += do
		}
		return
	}
	d := now.Sub(sp.start)
	a.count++
	a.self += d - sp.child
	a.durs = append(a.durs, d)
	if n > 0 {
		t.stack[n-1].child += d
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRecord{name: sp.name, id: sp.id, parent: sp.parent, start: sp.start.Sub(t.origin), dur: d})
	}
}

func (t *tracer) readAllocs() (bytes, objs uint64) {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64(), t.sample[1].Value.Uint64()
}

// layer returns the aggregate for name (empty if no span had that name).
func (t *tracer) layer(name string) *layerAgg {
	if a := t.agg[name]; a != nil {
		return a
	}
	return &layerAgg{}
}

// selfPer returns a layer's total self time divided by n, in milliseconds.
func (t *tracer) selfPer(name string, n int) float64 {
	return ms(t.layer(name).self) / float64(max(n, 1))
}

// allocMBPer returns a layer's self-allocated megabytes divided by n.
func (t *tracer) allocMBPer(name string, n int) float64 {
	return float64(t.layer(name).bytes) / (1 << 20) / float64(max(n, 1))
}

// coverage is the share of the named op spans' time that their child
// spans account for.
func (t *tracer) coverage(op string) float64 {
	a := t.layer(op)
	var total time.Duration
	for _, d := range a.durs {
		total += d
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(a.self)/float64(total)
}

// writeChrome writes the kept spans as a Chrome trace (complete events,
// microsecond timestamps; each span's id and parent id are args).
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.kept))
	for _, s := range t.kept {
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent}})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of ds (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// medianRate is the median over operations of units[i] / durs[i], in units
// per second: a run's throughput that one slow input or burst cannot swing.
func medianRate(units []float64, durs []time.Duration) float64 {
	rates := make([]float64, len(durs))
	for i, d := range durs {
		rates[i] = units[i] / d.Seconds()
	}
	slices.Sort(rates)
	return rates[len(rates)/2]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
