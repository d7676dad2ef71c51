// Chaos coverage for the incremental-cache seam from the bench side: a
// cache whose Put fails mid-build must degrade the affected pairs to
// "not cached" — never fail the build, never quarantine the pair — and
// the synthesis accounting must reflect exactly what ran.

package bench

import (
	"strings"
	"sync"
	"testing"

	"nvbench/internal/fault"
	"nvbench/internal/spider"
)

// faultyCache is a map-backed PairCache whose Put honors the
// store.shard.save fault site — the same contract as the real on-disk
// cache, which writes each record inside its shard through that site. Get
// never fails.
type faultyCache struct {
	mu sync.Mutex
	m  map[*spider.Pair]*PairOutcome
}

func newFaultyCache() *faultyCache {
	return &faultyCache{m: map[*spider.Pair]*PairOutcome{}}
}

func (c *faultyCache) Get(p *spider.Pair) (*PairOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[p]
	return out, ok
}

func (c *faultyCache) Put(p *spider.Pair, out *PairOutcome) error {
	if err := fault.Inject(fault.SiteShardSave); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[p] = out
	return nil
}

func TestCachePutFailureDegradesToUncached(t *testing.T) {
	corpus := testCorpus(t)
	plain, err := Build(corpus, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Every Put fails: the build must complete with identical output, the
	// failures counted, and nothing quarantined.
	cache := newFaultyCache()
	opts := DefaultOptions()
	opts.Cache = cache
	restore := fault.Activate(fault.NewPlan(1).Add(
		fault.Rule{Site: fault.SiteShardSave, Kind: fault.KindError, Rate: 1}))
	b, err := Build(corpus, opts)
	restore()
	if err != nil {
		t.Fatalf("build must survive cache write faults: %v", err)
	}
	if len(b.Quarantine) != 0 {
		t.Fatalf("cache write failures quarantined %d pairs", len(b.Quarantine))
	}
	if b.Stats.CacheWriteErrors != len(corpus.Pairs) {
		t.Fatalf("cache write errors = %d, want %d", b.Stats.CacheWriteErrors, len(corpus.Pairs))
	}
	if b.Stats.PairsSynthesized != len(corpus.Pairs) {
		t.Fatalf("pairs synthesized = %d, want all %d", b.Stats.PairsSynthesized, len(corpus.Pairs))
	}
	if len(cache.m) != 0 {
		t.Fatalf("failed Puts still cached %d outcomes", len(cache.m))
	}
	if fingerprint(t, b) != fingerprint(t, plain) {
		t.Fatal("build output diverged under cache write faults")
	}

	// The degradation is exactly "not cached": the next build over the now
	// healthy cache re-synthesizes everything, and only the one after that
	// is fully warm.
	rounds := []struct {
		round     string
		wantSynth int
	}{{"rebuild", len(corpus.Pairs)}, {"warm", 0}}
	for _, tc := range rounds {
		round, wantSynth := tc.round, tc.wantSynth
		opts := DefaultOptions()
		opts.Cache = cache
		b, err := Build(corpus, opts)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if b.Stats.PairsSynthesized != wantSynth {
			t.Fatalf("%s build synthesized %d pairs, want %d", round, b.Stats.PairsSynthesized, wantSynth)
		}
		if b.Stats.CacheHits != len(corpus.Pairs)-wantSynth {
			t.Fatalf("%s build: hits = %d, want %d", round, b.Stats.CacheHits, len(corpus.Pairs)-wantSynth)
		}
		if fingerprint(t, b) != fingerprint(t, plain) {
			t.Fatalf("%s build output diverged", round)
		}
	}
}

func TestPairsSynthesizedWithoutCache(t *testing.T) {
	corpus := testCorpus(t)
	b, err := Build(corpus, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.PairsSynthesized != b.Stats.PairsProcessed {
		t.Fatalf("uncached build synthesized %d of %d processed pairs",
			b.Stats.PairsSynthesized, b.Stats.PairsProcessed)
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
