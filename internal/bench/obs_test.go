package bench

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvbench/internal/obs"
	"nvbench/internal/spider"
)

func buildCorpus(t *testing.T) *spider.Corpus {
	t.Helper()
	corpus, err := spider.Generate(spider.Config{Seed: 4, NumDatabases: 3, PairsPerDB: 5, MaxRows: 60})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestInstrumentedBuildIsByteIdentical is the observability layer's core
// guarantee: metrics and traces flow into the registry and the trace file,
// never into the benchmark, so a fully instrumented build serializes to the
// same bytes as a bare one.
func TestInstrumentedBuildIsByteIdentical(t *testing.T) {
	corpus := buildCorpus(t)

	bare, err := Build(corpus, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewEventRecorder(obs.DefaultEventCapacity, obs.NewManualClock(time.Unix(0, 0)))
	ins := &obs.Instruments{
		Metrics: obs.NewRegistry(),
		Clock:   obs.RealClock{},
		Events:  rec,
		IDs:     obs.NewIDGen(obs.NewManualClock(time.Unix(0, 0))),
	}
	opts := DefaultOptions()
	opts.Obs = ins
	traced, err := Build(buildCorpus(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The build actually recorded wide events — each traced pair emits one
	// per pipeline stage, all joined to that pair's op.
	if rec.Total() == 0 {
		t.Fatal("instrumented build emitted no wide events")
	}
	for _, e := range rec.Events(obs.EventFilter{Layer: obs.LayerBench}) {
		if e.Op == "" {
			t.Fatalf("bench event without an op: %+v", e)
		}
	}

	bareJSON, err := json.Marshal(bare.Entries)
	if err != nil {
		t.Fatal(err)
	}
	tracedJSON, err := json.Marshal(traced.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if string(bareJSON) != string(tracedJSON) {
		t.Fatal("instrumented build produced different entries")
	}
	if !reflect.DeepEqual(bare.Rejections, traced.Rejections) {
		t.Fatalf("rejections diverged: %v vs %v", bare.Rejections, traced.Rejections)
	}
}

// TestBuildRecordsStageMetricsAndSpans checks that an instrumented build
// populates the per-stage histograms, the pipeline counters, and — in the
// Chrome trace its events render to — one pair span per source pair, each
// on its own track with its stage spans nested in it.
func TestBuildRecordsStageMetricsAndSpans(t *testing.T) {
	corpus := buildCorpus(t)
	reg := obs.NewRegistry()
	rec := obs.NewEventRecorder(obs.DefaultEventCapacity, nil)
	opts := DefaultOptions()
	opts.Obs = &obs.Instruments{Metrics: reg, Clock: obs.RealClock{}, Events: rec}
	b, err := Build(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, stage := range []string{obs.StageTreeEdit, obs.StageExecute, obs.StageDeepEye, obs.StageNLEdit} {
		h := snap.Histograms[obs.L(obs.StageHistogram, "stage", stage)]
		if h.Count == 0 {
			t.Errorf("stage %s recorded no observations", stage)
		}
	}
	if got := snap.Counters[obs.PairsSynthesized]; got != int64(b.Stats.PairsProcessed) {
		t.Errorf("pairs counter = %d, stats say %d processed", got, b.Stats.PairsProcessed)
	}

	if total := rec.Total(); total > obs.DefaultEventCapacity {
		t.Fatalf("build emitted %d events, more than the ring holds", total)
	}
	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, rec.Events(obs.EventFilter{})); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pairSpans := 0
	stageSpans := map[string]int{}
	pairTIDs := map[int64]bool{}
	var stageTIDs []int64
	for _, ev := range file.TraceEvents {
		if ev.Name == "pair" {
			pairSpans++
			pairTIDs[ev.TID] = true
		} else {
			stageSpans[ev.Name]++
			stageTIDs = append(stageTIDs, ev.TID)
		}
	}
	for _, tid := range stageTIDs {
		if !pairTIDs[tid] {
			t.Fatalf("stage span on track %d, which holds no pair span", tid)
		}
	}
	if pairSpans != len(corpus.Pairs) {
		t.Errorf("pair spans = %d, want one per source pair (%d)", pairSpans, len(corpus.Pairs))
	}
	if len(pairTIDs) != pairSpans {
		t.Errorf("pair spans share tracks: %d tracks for %d pairs", len(pairTIDs), pairSpans)
	}
	for _, stage := range []string{obs.StageTreeEdit, obs.StageExecute, obs.StageDeepEye, obs.StageNLEdit} {
		if stageSpans[stage] == 0 {
			t.Errorf("no %s spans in trace (have %v)", stage, stageSpans)
		}
	}
}

// BenchmarkBuildInstrumentation compares a bare build against a fully
// instrumented one. Each iteration runs one build of each kind, taking
// turns at going first, so host-load drift over the run lands on both
// alike; it reports their costs as bare-ns/build and events-ns/build, and
// cmd/nvgate gates the events-on build at under 5% over the bare one.
func BenchmarkBuildInstrumentation(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 4, NumDatabases: 3, PairsPerDB: 6, MaxRows: 60})
	if err != nil {
		b.Fatal(err)
	}
	// Metrics + wide events + op IDs: the configuration the served binary
	// runs with. The recorder and ID generator are created once — in the
	// binary they are made at startup and outlive every build — while the
	// registry is made per build.
	rec := obs.NewEventRecorder(obs.DefaultEventCapacity, obs.RealClock{})
	ids := obs.NewIDGen(obs.RealClock{})
	options := [2]func() Options{
		DefaultOptions,
		func() Options {
			opts := DefaultOptions()
			opts.Obs = &obs.Instruments{
				Metrics: obs.NewRegistry(),
				Clock:   obs.RealClock{},
				Events:  rec,
				IDs:     ids,
			}
			return opts
		},
	}
	clock := obs.RealClock{}
	var spent [2]time.Duration
	for i := 0; i < b.N; i++ {
		for k := range options {
			which := (i + k) % len(options)
			start := clock.Now()
			if _, err := Build(corpus, options[which]()); err != nil {
				b.Fatal(err)
			}
			spent[which] += clock.Now().Sub(start)
		}
	}
	b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N), "bare-ns/build")
	b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N), "events-ns/build")
}

// TestInstrumentedBuildLeavesSynthesizerBare runs an instrumented build
// and then a bare one on the same Synthesizer: the bare build must record
// nothing into the first build's instruments.
func TestInstrumentedBuildLeavesSynthesizerBare(t *testing.T) {
	corpus := buildCorpus(t)
	rec := obs.NewEventRecorder(obs.DefaultEventCapacity, nil)
	opts := DefaultOptions()
	opts.Obs = &obs.Instruments{Metrics: obs.NewRegistry(), Events: rec}
	if _, err := Build(corpus, opts); err != nil {
		t.Fatal(err)
	}
	traced := rec.Total()
	if traced == 0 {
		t.Fatal("instrumented build recorded no events")
	}
	opts.Obs = nil
	if _, err := Build(corpus, opts); err != nil {
		t.Fatal(err)
	}
	if n := rec.Total(); n != traced {
		t.Fatalf("bare build recorded %d events into the first build's ring", n-traced)
	}
}

// TestExecuteEventsCountSharedExecutions reads the per-pair execute
// events of a reference-corpus build: their candidates fields sum to the
// reference candidate count, and their executions fields to the distinct
// queries among them once the chart type is ignored — the executor runs
// each such query once per pair.
func TestExecuteEventsCountSharedExecutions(t *testing.T) {
	corpus, err := spider.Generate(spider.Config{Seed: 1, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewEventRecorder(1<<13, nil)
	opts := DefaultOptions()
	opts.Obs = &obs.Instruments{Events: rec}
	if _, err := Build(corpus, opts); err != nil {
		t.Fatal(err)
	}
	if rec.Total() > 1<<13 {
		t.Fatalf("build recorded %d events, more than the ring holds", rec.Total())
	}
	events := rec.Events(obs.EventFilter{Layer: obs.LayerBench, Site: obs.StageExecute})
	candidates, executions := 0, 0
	for _, e := range events {
		c, err1 := strconv.Atoi(e.Field("candidates"))
		x, err2 := strconv.Atoi(e.Field("executions"))
		if err1 != nil || err2 != nil || x > c {
			t.Fatalf("execute event fields %q: want executions ≤ candidates", e.Fields)
		}
		candidates += c
		executions += x
	}
	if len(events) != len(corpus.Pairs) || candidates != 3681 || executions != 2333 {
		t.Errorf("%d execute events summing to %d candidates and %d executions, want %d events, 3681 and 2333",
			len(events), candidates, executions, len(corpus.Pairs))
	}
}
