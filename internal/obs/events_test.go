package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestSlowLogPromotionAndPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slowlog.jsonl")
	clock := NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	r := NewEventRecorder(16, clock)
	r.SetSlowLog(NewSlowLog(path, 2), nil)

	// Below the HTTP threshold: retained in the ring only.
	r.Emit("fast", LayerHTTP, "/", "ok", 10*time.Millisecond)
	// At and above the per-layer thresholds: promoted.
	r.Emit("slow1", LayerHTTP, "/", "ok", 250*time.Millisecond)
	r.Emit("slow2", LayerVQL, "query", "ok", 150*time.Millisecond)
	r.Emit("slow3", LayerStore, "save", "ok", 2*time.Second)

	sl := r.SlowLogged()
	if sl == nil {
		t.Fatal("no slow log attached")
	}
	if err := sl.Err(); err != nil {
		t.Fatalf("slow log persistence error: %v", err)
	}
	got := sl.Entries()
	// Cap 2 keeps only the most recent two.
	if len(got) != 2 || got[0].Op != "slow2" || got[1].Op != "slow3" {
		t.Fatalf("slow entries = %+v", got)
	}

	// The persisted file holds the same events, one JSON line each.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ops []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad slowlog line %q: %v", sc.Text(), err)
		}
		ops = append(ops, e.Op)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, []string{"slow2", "slow3"}) {
		t.Fatalf("persisted ops = %v", ops)
	}
}

func TestNilEventRecorderAndSlowLogAreSafe(t *testing.T) {
	var r *EventRecorder
	r.Emit("op", LayerHTTP, "/", "ok", time.Second, "k", "v")
	r.SetSlowLog(NewSlowLog("", 0), nil)
	if r.Total() != 0 || r.Events(EventFilter{}) != nil || r.SlowLogged() != nil {
		t.Fatal("nil recorder not inert")
	}
	var l *SlowLog
	l.Record(Event{})
	if l.Entries() != nil || l.Path() != "" || l.Err() != nil {
		t.Fatal("nil slow log not inert")
	}
}

func TestEventRecorderConcurrent(t *testing.T) {
	r := NewEventRecorder(64, NewManualClock(time.Unix(0, 0)))
	r.SetSlowLog(NewSlowLog("", 8), map[string]time.Duration{LayerHTTP: time.Millisecond})
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
