package obs

import (
	"context"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var in *Instruments
	if in.clock().Now().IsZero() {
		t.Fatal("nil instruments must fall back to the real clock")
	}
	tm := in.Begin(context.Background(), LayerBench, StageRender)
	tm.End("ok", "k", "v")
	in.TimeHistogram("h")()
	in.Inc("c")
	in.Add("c", 3)
	in.Logf("msg", "k", "v")
	if _, id := in.NewOp(context.Background()); id == "" {
		t.Fatal("nil instruments minted no op ID")
	}
}

func TestStageRecordsHistogramAndSpan(t *testing.T) {
	in, _ := traced(t)
	tm := in.Begin(context.Background(), LayerBench, StageDeepEye)
	tm.End("ok")

	snap := in.Metrics.Snapshot()
	if s := snap.Histograms[L(StageHistogram, "stage", StageDeepEye)]; s.Count != 1 || s.Sum != 0.001 {
		t.Fatalf("stage histogram count=%d sum=%v, want one 1ms tick", s.Count, s.Sum)
	}
	evs := in.Events.Events(EventFilter{})
	if len(evs) != 1 || evs[0].Duration != time.Millisecond || !evs[0].Time.Equal(traceEpoch) {
		t.Fatalf("events = %+v, want one stamped with the start and a 1ms duration", evs)
	}
	// The pair operation is an event only: timing it adds no series.
	pair := in.Begin(context.Background(), LayerBench, "pair")
	pair.End("ok")
	if n := len(in.Metrics.Snapshot().Histograms); n != len(snap.Histograms) {
		t.Fatalf("pair timing added a histogram series (%d -> %d)", len(snap.Histograms), n)
	}
}

func TestTimeHistogramUsesInjectedClock(t *testing.T) {
	clock := NewTickingClock(time.Unix(0, 0), 250*time.Millisecond)
	reg := NewRegistry()
	in := &Instruments{Metrics: reg, Clock: clock}
	in.TimeHistogram("op_seconds")() // start and stop are adjacent ticks
	s := reg.Snapshot().Histograms["op_seconds"]
	if s.Count != 1 || s.Sum != 0.25 {
		t.Fatalf("count=%d sum=%v, want 1 observation of 0.25s", s.Count, s.Sum)
	}
}

func TestAddSkipsZero(t *testing.T) {
	reg := NewRegistry()
	in := &Instruments{Metrics: reg}
	in.Add("maybe_total", 0)
	if _, ok := reg.Snapshot().Counters["maybe_total"]; ok {
		t.Fatal("Add(0) materialized a series")
	}
	in.Add("maybe_total", 2)
	if got := reg.Snapshot().Counters["maybe_total"]; got != 2 {
		t.Fatalf("counter = %d", got)
	}
}
