package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// timeOp records one operation lasting d on clock into r through
// Begin/End, the recorder's only writer.
func timeOp(r *EventRecorder, clock *ManualClock, op, layer, site, outcome string, d time.Duration, kv ...string) {
	in := &Instruments{Clock: clock, Events: r}
	t := in.Begin(WithOpID(context.Background(), op), layer, site)
	clock.Advance(d)
	t.End(outcome, kv...)
}

func TestEventRecorderRingAndFilters(t *testing.T) {
	clock := NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	r := NewEventRecorder(4, nil)
	timeOp(r, clock, "op1", LayerHTTP, "/", "ok", 10*time.Millisecond, "status", "200")
	timeOp(r, clock, "op2", LayerHTTP, "/api/query", "error", 30*time.Millisecond)
	timeOp(r, clock, "op3", LayerStore, "save", "ok", 2*time.Millisecond)
	timeOp(r, clock, "op4", LayerVQL, "query", "ok", 50*time.Millisecond)
	timeOp(r, clock, "op5", LayerHTTP, "/", "ok", 5*time.Millisecond)
	timeOp(r, clock, "op6", LayerBench, "sqlparse", "ok", time.Millisecond)

	if got := r.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	all := r.Events(EventFilter{})
	if len(all) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(all))
	}
	// Oldest first, and the two oldest emissions were overwritten.
	for i, want := range []string{"op3", "op4", "op5", "op6"} {
		if all[i].Op != want {
			t.Fatalf("event %d is %q, want %q", i, all[i].Op, want)
		}
		if all[i].Seq != uint64(i+3) {
			t.Fatalf("event %d has seq %d, want %d", i, all[i].Seq, i+3)
		}
	}

	if got := r.Events(EventFilter{Layer: LayerHTTP}); len(got) != 1 || got[0].Op != "op5" {
		t.Fatalf("layer filter = %+v", got)
	}
	if got := r.Events(EventFilter{Op: "op4"}); len(got) != 1 || got[0].Site != "query" {
		t.Fatalf("op filter = %+v", got)
	}
	if got := r.Events(EventFilter{MinDur: 40 * time.Millisecond}); len(got) != 1 || got[0].Op != "op4" {
		t.Fatalf("min-duration filter = %+v", got)
	}
	if got := r.Events(EventFilter{Outcome: "ok", Layer: LayerStore}); len(got) != 1 || got[0].Op != "op3" {
		t.Fatalf("combined filter = %+v", got)
	}
}

// TestEventRingGrowsToItsCapacity checks the ring grows as events
// arrive, wraps once full, and that a recorder with no practical bound
// keeps every event while allocating only for what it recorded.
func TestEventRingGrowsToItsCapacity(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	ops := func(r *EventRecorder) (out []string) {
		for _, e := range r.Events(EventFilter{}) {
			out = append(out, e.Op)
		}
		return out
	}
	r := NewEventRecorder(3, nil)
	for i, op := range []string{"op1", "op2", "op3", "op4", "op5"} {
		timeOp(r, clock, op, LayerBench, "pair", "ok", time.Millisecond)
		if i == 1 {
			if got, want := ops(r), []string{"op1", "op2"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("before the ring fills: %v, want %v", got, want)
			}
		}
	}
	if got, want := ops(r), []string{"op3", "op4", "op5"}; !reflect.DeepEqual(got, want) || r.Total() != 5 {
		t.Fatalf("after wrapping: %v of %d, want %v of 5", got, r.Total(), want)
	}

	r = NewEventRecorder(math.MaxInt, nil)
	const n = 5000
	for i := 0; i < n; i++ {
		timeOp(r, clock, fmt.Sprint(i), LayerBench, "sqlparse", "ok", time.Microsecond)
	}
	events := r.Events(EventFilter{})
	if len(events) != n || events[0].Op != "0" || events[n-1].Op != fmt.Sprint(n-1) {
		t.Fatalf("unbounded ring kept %d of %d events", len(events), n)
	}
	if c := cap(r.buf); c > 2*n {
		t.Fatalf("unbounded ring allocated %d slots for %d events", c, n)
	}
}

func TestEventFieldAccessors(t *testing.T) {
	e := Event{Fields: []string{"shard", "03", "replica", "r1"}}
	if got := e.Field("shard"); got != "03" {
		t.Fatalf("Field(shard) = %q", got)
	}
	if got := e.Field("missing"); got != "" {
		t.Fatalf("Field(missing) = %q", got)
	}
	want := map[string]string{"shard": "03", "replica": "r1"}
	if got := e.FieldMap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FieldMap = %v, want %v", got, want)
	}
	if got := (&Event{}).FieldMap(); got != nil {
		t.Fatalf("empty FieldMap = %v, want nil", got)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	e := Event{
		Seq:      7,
		Op:       "op-9",
		Layer:    LayerStore,
		Site:     "save",
		Outcome:  "ok",
		Time:     time.Date(2026, 1, 2, 3, 4, 5, 600000000, time.UTC),
		Duration: 1250 * time.Microsecond,
		Fields:   []string{"replica", "r0", "shards", "16"},
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Fields come back in sorted-key order; everything else is exact.
	e.Fields = []string{"replica", "r0", "shards", "16"}
	if !reflect.DeepEqual(back, e) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, e)
	}
}

func TestNilEventRecorderIsSafe(t *testing.T) {
	var r *EventRecorder
	r.record(Event{Op: "op", Layer: LayerHTTP, Site: "/", Outcome: "ok"}, []string{"k", "v"})
	if r.Total() != 0 || r.Events(EventFilter{}) != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestEventRecorderConcurrent(t *testing.T) {
	r := NewEventRecorder(64, nil)
	clock := NewManualClock(time.Unix(0, 0))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				timeOp(r, clock, "op", LayerHTTP, "/", "ok", 2*time.Millisecond, "i", "x")
				r.Events(EventFilter{Layer: LayerHTTP})
				r.Total()
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 800 {
		t.Fatalf("Total = %d, want 800", got)
	}
}
