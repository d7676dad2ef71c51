package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var traceEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// traced returns instruments on a 1ms ticking clock with a recorder, plus
// a func rendering every recorded event as a Chrome trace.
func traced(t *testing.T) (*Instruments, func() string) {
	clock := NewTickingClock(traceEpoch, time.Millisecond)
	in := &Instruments{Metrics: NewRegistry(), Clock: clock, Events: NewEventRecorder(0, clock)}
	return in, func() string {
		var sb strings.Builder
		if err := WriteChromeTrace(&sb, in.Events.Events(EventFilter{})); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
}

// TestTracerGoldenJSON times a pair with one nested stage under a ticking
// clock and pins the exact Chrome trace-event file its events render to.
func TestTracerGoldenJSON(t *testing.T) {
	in, trace := traced(t)
	ctx := WithOpID(context.Background(), "op-7")
	pair := in.Begin(ctx, LayerBench, "pair")         // start = +0ms
	child := in.Begin(ctx, LayerBench, StageTreeEdit) // start = +1ms
	child.End("ok")                                   // end   = +2ms
	pair.End("ok", "pair_id", "7")                    // end   = +3ms

	want := `{
  "traceEvents": [
    {
      "name": "pair",
      "cat": "bench",
      "ph": "X",
      "ts": 0,
      "dur": 3000,
      "pid": 1,
      "tid": 1,
      "args": {
        "op": "op-7",
        "outcome": "ok",
        "pair_id": "7"
      }
    },
    {
      "name": "treeedit",
      "cat": "bench",
      "ph": "X",
      "ts": 1000,
      "dur": 1000,
      "pid": 1,
      "tid": 1,
      "args": {
        "op": "op-7",
        "outcome": "ok"
      }
    }
  ],
  "displayTimeUnit": "ms"
}
`
	if got := trace(); got != want {
		t.Fatalf("trace JSON:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestChildSpanSharesParentTrack: events of one op share a track, events
// of different ops never do.
func TestChildSpanSharesParentTrack(t *testing.T) {
	in, trace := traced(t)
	ctxA := WithOpID(context.Background(), "a")
	r1 := in.Begin(ctxA, LayerBench, "a")
	c1 := in.Begin(ctxA, LayerBench, "a.child")
	r2 := in.Begin(WithOpID(context.Background(), "b"), LayerBench, "b")
	for _, tm := range []*Timing{&c1, &r1, &r2} {
		tm.End("ok")
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace()), &file); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int64{}
	for _, ev := range file.TraceEvents {
		tids[ev.Name] = ev.TID
	}
	if tids["a"] != tids["a.child"] {
		t.Fatalf("child on different track: %v", tids)
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("independent roots share a track: %v", tids)
	}
}

// TestSpanNilAndDoubleEndSafety: timing without instruments is a no-op, an
// empty trace renders as an empty list, and a second End records nothing.
func TestSpanNilAndDoubleEndSafety(t *testing.T) {
	var none *Instruments
	tm := none.Begin(context.Background(), LayerBench, "x")
	tm.End("ok")
	in, trace := traced(t)
	if got := trace(); !strings.Contains(got, `"traceEvents": []`) {
		t.Fatalf("empty trace does not serialize as []:\n%s", got)
	}
	once := in.Begin(context.Background(), LayerBench, StageTreeEdit)
	once.End("ok")
	once.End("ok")
	if n := in.Events.Total(); n != 1 {
		t.Fatalf("double End recorded %d events", n)
	}
	if n := in.Metrics.Snapshot().Histograms[L(StageHistogram, "stage", StageTreeEdit)].Count; n != 1 {
		t.Fatalf("double End recorded %d observations", n)
	}
}

// TestBeginTakesOpFromContext: the context's op ID reaches the event and
// the histogram exemplar; a context without one yields an op-less event.
func TestBeginTakesOpFromContext(t *testing.T) {
	in, _ := traced(t)
	tm := in.Begin(WithOpID(context.Background(), "via-context"), LayerHTTP, "/")
	tm.End("ok")
	bare := in.Begin(context.Background(), LayerHTTP, "/")
	bare.End("ok")
	evs := in.Events.Events(EventFilter{})
	if len(evs) != 2 || evs[0].Op != "via-context" || evs[1].Op != "" {
		t.Fatalf("events = %+v", evs)
	}
	var ex []string
	for _, e := range in.Metrics.Snapshot().Histograms[L(HTTPSeconds, "route", "/")].Exemplars {
		if e.Op != "" {
			ex = append(ex, e.Op)
		}
	}
	if strings.Join(ex, ",") != "via-context" {
		t.Fatalf("exemplars = %v", ex)
	}
}
