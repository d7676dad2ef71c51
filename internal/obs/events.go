// Wide events: one structured record per operation per layer — the op ID,
// where it ran, how it ended, how long it took, plus free-form key=value
// fields (shard, replica, cache hit, bytes…). Instruments.Begin and
// Timing.End are the only writer; events land in a bounded ring so the
// recorder is safe to leave on in production.
// Events flow only into the ring, never into synthesized artifacts or the
// filesystem, so recording has zero effect on build output.

package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Layer names used as the layer field of wide events.
const (
	LayerHTTP  = "http"
	LayerBench = "bench"
	LayerStore = "store"
	LayerVQL   = "vql"
	LayerFault = "fault"
)

// Event is one wide event. Time is when the operation started and Duration
// how long it ran, so Time+Duration is its end. Fields holds alternating
// key/value extras, in emission order.
type Event struct {
	Seq      uint64
	Op       string
	Layer    string
	Site     string
	Outcome  string
	Time     time.Time
	Duration time.Duration
	Fields   []string
}

// Field returns the value of one extra field ("" when absent).
func (e *Event) Field(key string) string {
	for i := 0; i+1 < len(e.Fields); i += 2 {
		if e.Fields[i] == key {
			return e.Fields[i+1]
		}
	}
	return ""
}

// FieldMap returns the extra fields as a map (later duplicates win).
func (e *Event) FieldMap() map[string]string {
	if len(e.Fields) == 0 {
		return nil
	}
	m := make(map[string]string, len(e.Fields)/2)
	for i := 0; i+1 < len(e.Fields); i += 2 {
		m[e.Fields[i]] = e.Fields[i+1]
	}
	return m
}

// eventJSON is the wire shape of an event, as /debug/events serves it.
// encoding/json sorts map keys, so the output is deterministic for a
// deterministic event.
type eventJSON struct {
	Seq        uint64            `json:"seq"`
	Op         string            `json:"op"`
	Layer      string            `json:"layer"`
	Site       string            `json:"site"`
	Outcome    string            `json:"outcome"`
	Time       string            `json:"ts"`
	DurationMS float64           `json:"duration_ms"`
	Fields     map[string]string `json:"fields,omitempty"`
}

// MarshalJSON renders the event with an RFC3339Nano UTC timestamp, the
// duration in milliseconds, and the extras as an object.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq:        e.Seq,
		Op:         e.Op,
		Layer:      e.Layer,
		Site:       e.Site,
		Outcome:    e.Outcome,
		Time:       e.Time.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(e.Duration) / float64(time.Millisecond),
		Fields:     e.FieldMap(),
	})
}

// UnmarshalJSON inverts MarshalJSON (field order within Fields follows the
// sorted JSON keys).
func (e *Event) UnmarshalJSON(data []byte) error {
	var ej eventJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	t, err := time.Parse(time.RFC3339Nano, ej.Time)
	if err != nil {
		return err
	}
	*e = Event{
		Seq:      ej.Seq,
		Op:       ej.Op,
		Layer:    ej.Layer,
		Site:     ej.Site,
		Outcome:  ej.Outcome,
		Time:     t,
		Duration: time.Duration(ej.DurationMS * float64(time.Millisecond)),
	}
	keys := make([]string, 0, len(ej.Fields))
	for k := range ej.Fields {
		keys = append(keys, k)
	}
	// Deterministic order for a round-tripped event.
	sort.Strings(keys)
	for _, k := range keys {
		e.Fields = append(e.Fields, k, ej.Fields[k])
	}
	return nil
}

// traceEvent is one Chrome trace-event "complete" record; times are in
// microseconds, ts counted from the earliest event's start.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChromeTrace renders events as a Chrome trace-event file (load it in
// chrome://tracing or https://ui.perfetto.dev): one complete ("X") span per
// event, named after its site, categorized by its layer, with its op ID,
// outcome and fields as args. Each op ID gets its own track (tid, numbered
// in event order), so a build pair's stages nest in the pair's row. Spans
// sort by (ts, tid, name), so a deterministic clock yields deterministic
// bytes; no events render as an empty list.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var epoch time.Time
	for i, e := range events {
		if i == 0 || e.Time.Before(epoch) {
			epoch = e.Time
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	tids := map[string]int64{}
	spans := make([]traceEvent, 0, len(events))
	for _, e := range events {
		if _, ok := tids[e.Op]; !ok {
			tids[e.Op] = int64(len(tids) + 1)
		}
		args := map[string]string{"op": e.Op, "outcome": e.Outcome}
		for i := 0; i+1 < len(e.Fields); i += 2 {
			args[e.Fields[i]] = e.Fields[i+1]
		}
		spans = append(spans, traceEvent{Name: e.Site, Cat: e.Layer, Ph: "X", TS: us(e.Time.Sub(epoch)),
			Dur: us(e.Duration), PID: 1, TID: tids[e.Op], Args: args})
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{spans, "ms"})
}

// EventRecorder is a bounded, concurrency-safe ring of wide events,
// written only by Timing.End. The ring grows as events arrive up to its
// capacity; after that the oldest event is overwritten, and Total reports
// how many were ever recorded. A recorder with no practical bound (say,
// math.MaxInt) therefore keeps every event and allocates only what it
// records. The nil recorder discards everything, so layers record
// unconditionally.
type EventRecorder struct {
	capacity int
	mu       sync.Mutex
	buf      []Event
	seq      uint64
}

// DefaultEventCapacity is the ring size used when NewEventRecorder is
// given a non-positive capacity.
const DefaultEventCapacity = 1024

// NewEventRecorder returns a recorder holding the last capacity events.
// Timing.End stamps events from its Instruments clock, so the recorder
// ignores the Clock argument.
func NewEventRecorder(capacity int, _ Clock) *EventRecorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventRecorder{capacity: capacity}
}

// record stores ev with a copy of the kv extras and assigns its sequence
// number. Safe on a nil recorder.
func (r *EventRecorder) record(ev Event, kv []string) {
	if r == nil {
		return
	}
	if len(kv) > 0 {
		ev.Fields = append([]string(nil), kv...)
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[(r.seq-1)%uint64(r.capacity)] = ev
	}
	r.mu.Unlock()
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (r *EventRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// EventFilter selects events; zero fields match everything.
type EventFilter struct {
	Op      string        // exact op ID
	Layer   string        // exact layer
	Site    string        // exact site (the route, for HTTP events)
	Outcome string        // exact outcome
	MinDur  time.Duration // minimum duration
}

func (f EventFilter) match(e *Event) bool {
	if f.Op != "" && e.Op != f.Op {
		return false
	}
	if f.Layer != "" && e.Layer != f.Layer {
		return false
	}
	if f.Site != "" && e.Site != f.Site {
		return false
	}
	if f.Outcome != "" && e.Outcome != f.Outcome {
		return false
	}
	return e.Duration >= f.MinDur
}

// Events returns the retained events matching f, oldest first. The nil
// recorder returns nil.
func (r *EventRecorder) Events(f EventFilter) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n, size := r.seq, uint64(len(r.buf))
	out := make([]Event, 0, size)
	for i := n - size; i < n; i++ {
		e := &r.buf[i%size]
		if f.match(e) {
			out = append(out, *e)
		}
	}
	return out
}
