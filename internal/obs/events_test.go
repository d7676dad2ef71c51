package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestEventRecorderRingAndFilters(t *testing.T) {
	clock := NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	r := NewEventRecorder(4, clock)
	r.Emit("op1", LayerHTTP, "/", "ok", 10*time.Millisecond, "status", "200")
	r.Emit("op2", LayerHTTP, "/api/query", "error", 30*time.Millisecond)
	r.Emit("op3", LayerStore, "save", "ok", 2*time.Millisecond)
	r.Emit("op4", LayerVQL, "query", "ok", 50*time.Millisecond)
	r.Emit("op5", LayerHTTP, "/", "ok", 5*time.Millisecond)
	r.Emit("op6", LayerBench, "sqlparse", "ok", time.Millisecond)

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

// TestReserveKeepsRetainedEvents grows a ring that has already wrapped and
// checks every retained event survives, in order, with room for more.
func TestReserveKeepsRetainedEvents(t *testing.T) {
	r := NewEventRecorder(2, nil)
	var ops []string
	for i, op := range []string{"op1", "op2", "op3", "op4", "op5"} {
		if i == 3 {
			r.Reserve(4)
			r.Reserve(1) // never shrinks
		}
		r.Emit(op, LayerBench, "pair", "ok", time.Millisecond)
	}
	for _, e := range r.Events(EventFilter{}) {
		ops = append(ops, e.Op)
	}
	if want := []string{"op2", "op3", "op4", "op5"}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("retained %v, want %v", ops, want)
	}
	(*EventRecorder)(nil).Reserve(8) // no-op

	// Growing a wrapped ring cannot bring back what it overwrote: the
	// lost event stays lost, not a zero Event in its slot, so a caller
	// comparing Total with the retained count still sees the truncation.
	r = NewEventRecorder(2, nil)
	for _, op := range []string{"op1", "op2", "op3"} {
		r.Emit(op, LayerBench, "pair", "ok", time.Millisecond)
	}
	r.Reserve(8)
	r.Reserve(16) // a second growth still knows op1 is gone
	ops = nil
	for _, e := range r.Events(EventFilter{}) {
		ops = append(ops, e.Op)
	}
	if want := []string{"op2", "op3"}; !reflect.DeepEqual(ops, want) || r.Total() != 3 {
		t.Fatalf("after growing a wrapped ring: retained %v of %d, want %v of 3", ops, r.Total(), want)
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
	r.Emit("op", LayerHTTP, "/", "ok", time.Second, "k", "v")
	if r.Total() != 0 || r.Events(EventFilter{}) != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestEventRecorderConcurrent(t *testing.T) {
	r := NewEventRecorder(64, NewManualClock(time.Unix(0, 0)))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit("op", LayerHTTP, "/", "ok", 2*time.Millisecond, "i", "x")
				r.Events(EventFilter{Layer: LayerHTTP})
				r.Total()
				r.Reserve(64 + i)
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 800 {
		t.Fatalf("Total = %d, want 800", got)
	}
}
