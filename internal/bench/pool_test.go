package bench

import (
	"strings"
	"testing"

	"nvbench/internal/fault"
	"nvbench/internal/spider"
)

func testCorpus(t *testing.T) *spider.Corpus {
	t.Helper()
	corpus, err := spider.Generate(spider.Config{Seed: 3, NumDatabases: 6, PairsPerDB: 6, MaxRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// fingerprint captures everything entry-order-sensitive about a build.
func fingerprint(t *testing.T, b *Benchmark) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range b.Entries {
		sb.WriteString(e.Vis.String())
		sb.WriteByte('|')
		sb.WriteString(strings.Join(e.NLs, "~"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	corpus := testCorpus(t)
	serialOpts := DefaultOptions()
	serialOpts.Workers = 1
	serial, err := Build(corpus, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parOpts := DefaultOptions()
	parOpts.Workers = 8
	parallel, err := Build(corpus, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Entries) == 0 {
		t.Fatal("serial build empty")
	}
	if fingerprint(t, serial) != fingerprint(t, parallel) {
		t.Fatal("parallel build diverged from serial build")
	}
	for i, e := range parallel.Entries {
		if e.ID != i {
			t.Fatalf("entry %d has ID %d; IDs must stay sequential", i, e.ID)
		}
	}
	if parallel.Stats.Workers < 2 {
		t.Fatalf("Stats.Workers = %d, want pool of ≥2", parallel.Stats.Workers)
	}
}

func TestBuildQuarantinesInsteadOfAborting(t *testing.T) {
	corpus := testCorpus(t)
	plan := fault.NewPlan(17).Add(fault.Rule{Site: fault.SiteSynthesize, Kind: fault.KindError, Rate: 0.4})
	defer fault.Activate(plan)()
	opts := DefaultOptions()
	opts.Retries = 1 // no retry: every injected failure must quarantine
	opts.RetryBackoff = fault.Backoff{}
	b, err := Build(corpus, opts)
	if err != nil {
		t.Fatalf("Build must not abort under per-pair faults: %v", err)
	}
	if len(b.Quarantine) == 0 {
		t.Fatal("40% failure rate with no retries produced no quarantined pairs")
	}
	if b.Stats.PairsQuarantined != len(b.Quarantine) {
		t.Fatalf("Stats.PairsQuarantined = %d, len(Quarantine) = %d", b.Stats.PairsQuarantined, len(b.Quarantine))
	}
	// Accounting: a quarantined pair contributes no entries, and every
	// quarantine record names a real pair with stage and error.
	quarantined := map[int]bool{}
	for _, q := range b.Quarantine {
		if q.Stage == "" || q.Err == "" || q.Attempts < 1 {
			t.Fatalf("incomplete quarantine record: %+v", q)
		}
		quarantined[q.PairID] = true
	}
	for _, e := range b.Entries {
		if quarantined[e.PairID] {
			t.Fatalf("pair %d is both quarantined and present in entries", e.PairID)
		}
	}
	if b.Stats.PairsProcessed != len(corpus.Pairs) {
		t.Fatalf("PairsProcessed = %d, want %d", b.Stats.PairsProcessed, len(corpus.Pairs))
	}
}

func TestBuildRetriesRecoverTransientFaults(t *testing.T) {
	corpus := testCorpus(t)
	plan := fault.NewPlan(21).Add(fault.Rule{Site: fault.SiteSynthesize, Kind: fault.KindError, Rate: 0.5})
	defer fault.Activate(plan)()
	opts := DefaultOptions()
	opts.Retries = 6
	opts.RetryBackoff = fault.Backoff{}
	b, err := Build(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With 6 attempts at 50% failure, survival per pair is ~98%; the run
	// must have exercised retries and recovered most pairs.
	if b.Stats.RetriedAttempts == 0 {
		t.Fatal("no retries recorded at 50% transient failure rate")
	}
	if got := len(b.Quarantine); got > len(corpus.Pairs)/4 {
		t.Fatalf("%d of %d pairs quarantined despite retry budget", got, len(corpus.Pairs))
	}
	if len(b.Entries) == 0 {
		t.Fatal("no entries survived")
	}
}

func TestBuildSurvivesPanicsAtEverySite(t *testing.T) {
	corpus := testCorpus(t)
	plan := fault.NewPlan(9).
		Add(fault.Rule{Site: "*", Kind: fault.KindPanic, Rate: 0.05}).
		Add(fault.Rule{Site: "*", Kind: fault.KindError, Rate: 0.05})
	defer fault.Activate(plan)()
	opts := DefaultOptions()
	opts.RetryBackoff = fault.Backoff{}
	b, err := Build(corpus, opts)
	if err != nil {
		t.Fatalf("build aborted under wildcard chaos: %v", err)
	}
	if b.Stats.PairsProcessed != len(corpus.Pairs) {
		t.Fatalf("PairsProcessed = %d, want %d", b.Stats.PairsProcessed, len(corpus.Pairs))
	}
	// Every pair is accounted for: quarantined or eligible to contribute.
	quarantined := map[int]bool{}
	for _, q := range b.Quarantine {
		quarantined[q.PairID] = true
	}
	contributed := map[int]bool{}
	for _, e := range b.Entries {
		contributed[e.PairID] = true
	}
	for id := range quarantined {
		if contributed[id] {
			t.Fatalf("pair %d both quarantined and contributing", id)
		}
	}
}

func TestClassifierFallbackRecordedInStats(t *testing.T) {
	corpus := testCorpus(t)
	plan := fault.NewPlan(4).Add(fault.Rule{Site: fault.SiteClassify, Kind: fault.KindError, Rate: 1})
	defer fault.Activate(plan)()
	opts := DefaultOptions()
	opts.RetryBackoff = fault.Backoff{}
	b, err := Build(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.ClassifierFallbacks == 0 {
		t.Fatal("classifier ran rules-only the whole build but Stats.ClassifierFallbacks = 0")
	}
	if len(b.Quarantine) != 0 {
		t.Fatalf("classifier degradation must not quarantine pairs, got %d", len(b.Quarantine))
	}
	if len(b.Entries) == 0 {
		t.Fatal("degraded build kept nothing")
	}
}

func TestWriteQuarantineReport(t *testing.T) {
	b := &Benchmark{
		Quarantine: []Quarantined{
			{PairID: 3, Stage: "synthesize", Err: "injected", Attempts: 3},
			{PairID: 9, Stage: "variants", Err: "recovered panic: boom", Attempts: 1},
		},
		Stats: RunStats{PairsProcessed: 40},
	}
	var sb strings.Builder
	WriteQuarantine(&sb, b)
	out := sb.String()
	for _, want := range []string{"2 of 40", "pair 3", "stage=synthesize", "attempts=3", "pair 9", "recovered panic: boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	WriteQuarantine(&empty, &Benchmark{Stats: RunStats{PairsProcessed: 5}})
	if !strings.Contains(empty.String(), "0 of 5") {
		t.Errorf("empty report = %q", empty.String())
	}
}

func TestWriteQuarantineCapsDetailLines(t *testing.T) {
	mk := func(n int) *Benchmark {
		b := &Benchmark{Stats: RunStats{PairsProcessed: 2 * n}}
		for i := 0; i < n; i++ {
			b.Quarantine = append(b.Quarantine, Quarantined{PairID: i, Stage: "synthesize", Err: "injected", Attempts: 1})
		}
		return b
	}
	// Exactly at the cap: every line prints, no trailer.
	var sb strings.Builder
	WriteQuarantine(&sb, mk(quarantineMaxListed))
	out := sb.String()
	if strings.Contains(out, "more") {
		t.Fatalf("report at the cap must not have a trailer:\n%s", out)
	}
	if got := strings.Count(out, "  pair "); got != quarantineMaxListed {
		t.Fatalf("report at the cap lists %d pairs, want %d", got, quarantineMaxListed)
	}
	// One past the cap: the list stops at the cap and the trailer accounts
	// for the rest; the header still carries the full count.
	sb.Reset()
	WriteQuarantine(&sb, mk(quarantineMaxListed+1))
	out = sb.String()
	if !strings.Contains(out, "… and 1 more") {
		t.Fatalf("report past the cap is missing the trailer:\n%s", out)
	}
	if got := strings.Count(out, "  pair "); got != quarantineMaxListed {
		t.Fatalf("report past the cap lists %d pairs, want %d", got, quarantineMaxListed)
	}
	if !strings.Contains(out, "quarantine: 21 of 42 pairs skipped") {
		t.Fatalf("header lost the full count:\n%s", out)
	}
}
