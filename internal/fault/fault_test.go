package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestInjectNoPlanIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("no plan should be active by default")
	}
	for _, site := range Sites() {
		if err := Inject(site); err != nil {
			t.Fatalf("Inject(%q) with no plan = %v", site, err)
		}
	}
}

func TestErrorRateConverges(t *testing.T) {
	p := NewPlan(42).Add(Rule{Site: SiteParse, Kind: KindError, Rate: 0.2})
	restore := Activate(p)
	defer restore()
	const n = 5000
	failed := 0
	for i := 0; i < n; i++ {
		if err := Inject(SiteParse); err != nil {
			failed++
		}
	}
	got := float64(failed) / n
	if math.Abs(got-0.2) > 0.03 {
		t.Fatalf("observed failure rate %.3f, want ~0.2", got)
	}
	st := p.Stats()
	if len(st) != 1 || st[0].Calls != n || st[0].Errors != uint64(failed) {
		t.Fatalf("stats mismatch: %+v (failed=%d)", st, failed)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		p := NewPlan(seed).Add(Rule{Site: SiteRender, Kind: KindError, Rate: 0.3})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, p.inject(context.Background(), SiteRender) != nil)
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPanicInjection(t *testing.T) {
	p := NewPlan(1).Add(Rule{Site: SiteClassify, Kind: KindPanic, Rate: 1})
	restore := Activate(p)
	defer restore()
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Site != SiteClassify {
			t.Fatalf("recovered %v, want PanicValue at %q", r, SiteClassify)
		}
	}()
	_ = Inject(SiteClassify)
	t.Fatal("Inject should have panicked")
}

func TestLatencyInjection(t *testing.T) {
	p := NewPlan(1).Add(Rule{Site: SiteServer, Kind: KindLatency, Rate: 1, Delay: 30 * time.Millisecond})
	restore := Activate(p)
	defer restore()
	start := time.Now()
	if err := Inject(SiteServer); err != nil {
		t.Fatalf("latency rule returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency injection returned after %v, want ≥30ms", d)
	}
}

func TestWildcardCoversAllSites(t *testing.T) {
	p := NewPlan(3).Add(Rule{Site: "*", Kind: KindError, Rate: 1})
	restore := Activate(p)
	defer restore()
	for _, site := range Sites() {
		err := Inject(site)
		if err == nil {
			t.Fatalf("site %q not covered by wildcard", site)
		}
		if !errors.Is(err, ErrInjected) || !IsTransient(err) {
			t.Fatalf("site %q: injected error not transient/ErrInjected: %v", site, err)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("parse:error:0.05, classify:panic:0.1, render:latency:0.2:15ms", 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.rules[SiteParse]) != 1 || len(p.rules[SiteClassify]) != 1 || len(p.rules[SiteRender]) != 1 {
		t.Fatalf("rules not registered: %v", p.String())
	}
	if p.rules[SiteRender][0].Delay != 15*time.Millisecond {
		t.Fatalf("delay = %v", p.rules[SiteRender][0].Delay)
	}
	for _, bad := range []string{
		"nosuchsite:error:0.1",
		"store.save:error:1", // not a site: store writes go through store.shard.*
		"parse:explode:0.1",
		"parse:error:1.5",
		"parse:error:x",
		"parse:error:0.1:5ms", // delay on a non-latency rule
		"parse:error",
	} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid spec", bad)
		}
	}
	// Empty clauses and whole-empty specs are fine (no-op plan).
	if _, err := ParsePlan("", 1); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

func TestInjectConcurrentCounts(t *testing.T) {
	p := NewPlan(11).Add(Rule{Site: SiteExecute, Kind: KindError, Rate: 0.5})
	restore := Activate(p)
	defer restore()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = Inject(SiteExecute)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st[0].Calls != workers*per {
		t.Fatalf("calls = %d, want %d", st[0].Calls, workers*per)
	}
	got := float64(st[0].Errors) / float64(workers*per)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("concurrent failure rate %.3f, want ~0.5", got)
	}
}

func TestSafelyCapturesPanics(t *testing.T) {
	err := Safely("unit", func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("err = %v, want PanicError(boom)", err)
	}
	if IsTransient(err) {
		t.Fatal("organic panic must be permanent")
	}
	err = Safely("unit", func() error { panic(PanicValue{Site: "x", N: 1}) })
	if !IsTransient(err) {
		t.Fatal("injected panic must be transient")
	}
	if err := Safely("unit", func() error { return nil }); err != nil {
		t.Fatalf("clean fn: %v", err)
	}
}

func TestTransientClassification(t *testing.T) {
	base := errors.New("disk on fire")
	if IsTransient(base) {
		t.Fatal("plain error misclassified transient")
	}
	tr := Transient(base)
	if !IsTransient(tr) || !errors.Is(tr, base) {
		t.Fatalf("Transient wrapper broken: %v", tr)
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	wrapped := fmt.Errorf("stage: %w", tr)
	if !IsTransient(wrapped) {
		t.Fatal("transient mark lost through wrapping")
	}
}

func TestRetryOnlyRetriesTransient(t *testing.T) {
	ctx := context.Background()
	calls := 0
	err, tried := Retry(ctx, 5, Backoff{}, func() error {
		calls++
		return errors.New("permanent")
	})
	if err == nil || tried != 1 || calls != 1 {
		t.Fatalf("permanent error retried: err=%v tried=%d calls=%d", err, tried, calls)
	}

	calls = 0
	err, tried = Retry(ctx, 5, Backoff{}, func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || tried != 3 {
		t.Fatalf("transient retry: err=%v tried=%d", err, tried)
	}

	calls = 0
	err, tried = Retry(ctx, 3, Backoff{}, func() error {
		calls++
		return Transient(errors.New("always"))
	})
	if err == nil || tried != 3 || calls != 3 {
		t.Fatalf("exhausted retry: err=%v tried=%d calls=%d", err, tried, calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err, tried := Retry(ctx, 10, Backoff{Initial: time.Hour}, func() error {
		calls++
		return Transient(errors.New("flaky"))
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if calls != 1 || tried != 1 {
		t.Fatalf("canceled retry kept going: calls=%d tried=%d", calls, tried)
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Initial: 10 * time.Millisecond, Max: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35}
	for i, w := range want {
		if d := b.delay(i + 1); d != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
}
