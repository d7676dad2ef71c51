package fault

import (
	"testing"
	"time"

	"nvbench/internal/obs"
)

// TestLatencyEventSpansItsDelay checks a fired latency fault is one timed
// operation over the delay it injected: on a real clock its event lies
// within the Inject call and lasts at least the delay, so it starts before
// the delay rather than after it.
func TestLatencyEventSpansItsDelay(t *testing.T) {
	const delay = 30 * time.Millisecond
	clock := obs.RealClock{}
	rec := obs.NewEventRecorder(16, nil)
	defer Instrument(&obs.Instruments{Clock: clock, Events: rec})()
	defer Activate(NewPlan(1).Add(Rule{Site: SiteRender, Kind: KindLatency, Rate: 1, Delay: delay}))()

	start := clock.Now()
	if err := Inject(SiteRender); err != nil {
		t.Fatal(err)
	}
	end := clock.Now()
	events := rec.Events(obs.EventFilter{})
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want one fault event", len(events))
	}
	e := events[0]
	if e.Layer != obs.LayerFault || e.Site != SiteRender || e.Outcome != "fault" || e.Field("kind") != "latency" {
		t.Fatalf("fault event = %+v", e)
	}
	if e.Time.Before(start) || e.Time.Add(e.Duration).After(end) || e.Duration < delay {
		t.Fatalf("event [%v, +%v] is not a %v span within the call [%v, %v]",
			e.Time.Sub(start), e.Duration, delay, time.Duration(0), end.Sub(start))
	}
}

// TestFaultEventsOnlyForInterference checks a clean pass-through records
// nothing, and that a panic rule's event is recorded before the panic.
func TestFaultEventsOnlyForInterference(t *testing.T) {
	rec := obs.NewEventRecorder(16, nil)
	defer Instrument(&obs.Instruments{Events: rec})()
	defer Activate(NewPlan(1).Add(Rule{Site: SiteRender, Kind: KindPanic, Rate: 1}))()

	if err := Inject(SiteParse); err != nil || rec.Total() != 0 {
		t.Fatalf("clean pass-through: err %v, %d events", err, rec.Total())
	}
	func() {
		defer func() { _ = recover() }()
		_ = Inject(SiteRender)
		t.Fatal("panic rule did not panic")
	}()
	events := rec.Events(obs.EventFilter{Layer: obs.LayerFault})
	if len(events) != 1 || events[0].Field("kind") != "panic" {
		t.Fatalf("panic rule events = %+v, want one kind=panic event", events)
	}
}
