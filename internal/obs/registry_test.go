package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	c.Set(9)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1.5) // must not panic

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a live metric")
	}
	r.AddGatherHook(func(*Registry) {})
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err=%v", sb.String(), err)
	}
}

func TestRegistryReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same counter name resolved to different instances")
	}
	if r.Histogram("h", 1, 2) != r.Histogram("h") {
		t.Fatal("same histogram name resolved to different instances")
	}
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestLCanonicalizesLabels(t *testing.T) {
	if got, want := L("m", "b", "2", "a", "1"), `m{a="1",b="2"}`; got != want {
		t.Fatalf("L = %q, want %q", got, want)
	}
	if got, want := L("m"), "m"; got != want {
		t.Fatalf("L no labels = %q, want %q", got, want)
	}
	// Escaping: backslash, quote and newline survive the round trip.
	got := L("m", "k", `a"b\c`+"\n")
	if want := `m{k="a\"b\\c\n"}`; got != want {
		t.Fatalf("L escaped = %q, want %q", got, want)
	}
}

func TestSplitNameAndLabels(t *testing.T) {
	base, block := SplitName(`m{a="1",b="2"}`)
	if base != "m" || block != `{a="1",b="2"}` {
		t.Fatalf("SplitName = %q %q", base, block)
	}
	labels := Labels(`m{a="1",b="x"}`)
	if labels["a"] != "1" || labels["b"] != "x" || len(labels) != 2 {
		t.Fatalf("Labels = %v", labels)
	}
	if got := Labels("plain"); len(got) != 0 {
		t.Fatalf("Labels(plain) = %v", got)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 2, 4)
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if got, want := s.Sum, 14.5; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got, want := s.Mean(), 2.9; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// Median rank 2.5 lands in the (1,2] bucket holding observations 2..3:
	// linear interpolation gives 1 + (2.5-1)/2 = 1.75.
	if got, want := s.Quantile(0.5), 1.75; got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// The top observation sits in the overflow bucket and clamps to the
	// largest finite bound.
	if got, want := s.Quantile(1), 4.0; got != want {
		t.Fatalf("p100 = %v, want %v", got, want)
	}
	if got := (HistogramSnapshot{}).Quantile(0.9); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	if got := (HistogramSnapshot{}).Mean(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
}

func TestGatherHookRepublishesOnScrape(t *testing.T) {
	r := NewRegistry()
	external := int64(0)
	r.AddGatherHook(func(r *Registry) {
		r.Counter("mirrored_total").Set(external)
	})
	external = 7
	if got := r.Snapshot().Counters["mirrored_total"]; got != 7 {
		t.Fatalf("after first scrape: %d", got)
	}
	external = 9
	if got := r.Snapshot().Counters["mirrored_total"]; got != 9 {
		t.Fatalf("after second scrape: %d", got)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(L("nvbench_fault_calls_total", "site", "render")).Add(3)
	r.Counter("nvbench_pairs_synthesized_total").Add(12)
	r.Gauge("nvbench_http_in_flight").Set(2)
	// Exact binary fractions keep the shortest-float rendering stable.
	h := r.Histogram(L("nvbench_stage_seconds", "stage", "render"), 0.25, 0.5, 1)
	h.Observe(0.125)
	h.Observe(0.375)
	h.Observe(0.375)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE nvbench_fault_calls_total counter
nvbench_fault_calls_total{site="render"} 3
# TYPE nvbench_pairs_synthesized_total counter
nvbench_pairs_synthesized_total 12
# TYPE nvbench_http_in_flight gauge
nvbench_http_in_flight 2
# TYPE nvbench_stage_seconds histogram
nvbench_stage_seconds_bucket{stage="render",le="0.25"} 1
nvbench_stage_seconds_bucket{stage="render",le="0.5"} 3
nvbench_stage_seconds_bucket{stage="render",le="1"} 3
nvbench_stage_seconds_bucket{stage="render",le="+Inf"} 4
nvbench_stage_seconds_sum{stage="render"} 2.875
nvbench_stage_seconds_count{stage="render"} 4
`
	if sb.String() != want {
		t.Fatalf("prometheus text:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestRegisterBaseExposesSchemaBeforeTraffic(t *testing.T) {
	r := NewRegistry()
	RegisterBase(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"nvbench_pairs_synthesized_total 0",
		"nvbench_quarantined_total 0",
		"nvbench_http_in_flight 0",
		`nvbench_stage_seconds_count{stage="sqlparse"} 0`,
		`nvbench_stage_seconds_count{stage="render"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("pre-traffic scrape missing %q:\n%s", want, text)
		}
	}
}

// TestRegistryConcurrency exercises create-on-first-use, observation and
// scraping from many goroutines; run with -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	r.AddGatherHook(func(r *Registry) { r.Counter("hooked_total").Set(1) })
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter(L("c_total", "w", "x")).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(i) / 1000)
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(&strings.Builder{})
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters[L("c_total", "w", "x")]; got != workers*500 {
		t.Fatalf("counter = %d, want %d", got, workers*500)
	}
	if got := s.Histograms["h"].Count; got != workers*500 {
		t.Fatalf("histogram count = %d, want %d", got, workers*500)
	}
	if got := s.Gauges["g"]; got != workers*500 {
		t.Fatalf("gauge = %d, want %d", got, workers*500)
	}
}

// BenchmarkRegistryObserve measures the hot path instrumentation adds to
// every pipeline stage: one histogram observation plus one counter
// increment on pre-resolved series.
func BenchmarkRegistryObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram(L(StageHistogram, "stage", StageRender))
	c := r.Counter(PairsSynthesized)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
			c.Inc()
		}
	})
}

// BenchmarkRegistryLookupObserve includes the name resolution a call site
// pays when it does not cache the series handle.
func BenchmarkRegistryLookupObserve(b *testing.B) {
	r := NewRegistry()
	name := L(StageHistogram, "stage", StageRender)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Histogram(name).Observe(0.0042)
		}
	})
}
