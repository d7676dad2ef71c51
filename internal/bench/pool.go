// Fault-tolerant assembly: Build fans the per-pair synthesis work out to a
// worker pool, retries transient failures with bounded backoff, and
// quarantines pairs that still fail — recording (pair, stage, error,
// attempts) — instead of aborting the run. Workers only compute; entries
// are assembled sequentially in source-pair order afterwards, so the
// benchmark (IDs included) is byte-identical to the serial build.

package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"

	"nvbench/internal/core"
	"nvbench/internal/fault"
	"nvbench/internal/nledit"
	"nvbench/internal/obs"
	"nvbench/internal/spider"
)

// Quarantined records one source pair the build skipped after exhausting
// its retry budget, and why.
type Quarantined struct {
	PairID   int    `json:"pair_id"`
	Stage    string `json:"stage"` // "synthesize" or "variants"
	Err      string `json:"error"`
	Attempts int    `json:"attempts"`
}

// RunStats summarizes a build's robustness events.
type RunStats struct {
	Workers             int   // pool size used
	PairsProcessed      int   // pairs attempted
	PairsQuarantined    int   // pairs skipped after retries
	RetriedAttempts     int   // attempts beyond each pair's first
	ClassifierFallbacks int64 // classifier calls degraded to rules-only
	PairsSynthesized    int   // pairs that ran the synthesis pipeline (not cache-served)
	CacheHits           int   // pairs served from the incremental cache
	CacheMisses         int   // pairs synthesized because the cache missed
	CacheWriteErrors    int   // cache Put failures (build output unaffected)
}

// pairResult is one worker's output for one source pair.
type pairResult struct {
	outcome     *PairOutcome
	quarantine  *Quarantined
	attempts    int
	cacheHit    bool
	cachePutErr error
}

// processPair runs the full per-pair pipeline (synthesize, truncate,
// NL variants) under panic recovery and the retry budget. With a cache
// configured it is consulted first; a hit skips synthesis entirely and a
// successful fresh outcome is written back.
func processPair(ctx context.Context, opts Options, p *spider.Pair) pairResult {
	// Each pair is one traced operation: every stage event and histogram
	// exemplar it produces carries this op ID (build-level callers that
	// already put one in ctx keep theirs), and the pair's own event spans
	// them all.
	ctx, _ = opts.Obs.NewOp(ctx)
	pair := opts.Obs.Begin(ctx, obs.LayerBench, "pair")
	var res pairResult
	defer func() {
		outcome := "ok"
		if res.quarantine != nil {
			outcome = "quarantined"
		}
		pair.End(outcome, "pair_id", strconv.Itoa(p.ID), "cache_hit", strconv.FormatBool(res.cacheHit))
	}()
	if opts.Cache != nil {
		if out, ok := opts.Cache.Get(p); ok {
			res.outcome, res.cacheHit = out, true
			return res
		}
	}
	var kept []*core.VisObject
	var rejected []core.Rejection
	synth := func() error {
		k, rej, err := opts.Synth.SynthesizeCtx(ctx, p.DB, p.Query)
		if err != nil {
			return err
		}
		kept, rejected = k, rej
		return nil
	}
	err, tried := fault.Retry(ctx, opts.Retries, opts.RetryBackoff, synth)
	res.attempts = tried
	if err != nil {
		res.quarantine = &Quarantined{PairID: p.ID, Stage: "synthesize", Err: err.Error(), Attempts: tried}
		return res
	}
	if opts.MaxVisPerPair > 0 && len(kept) > opts.MaxVisPerPair {
		kept = diverseTruncate(kept, opts.MaxVisPerPair)
	}
	var variants [][]nledit.Variant
	genVariants := func() error {
		return fault.Safely("bench/variants", func() error {
			if err := fault.Inject(fault.SiteVariants); err != nil {
				return err
			}
			nl := opts.Obs.Begin(ctx, obs.LayerBench, obs.StageNLEdit)
			defer nl.End("ok")
			variants = make([][]nledit.Variant, len(kept))
			for i, v := range kept {
				variants[i] = opts.Edit.Variants(p.NL, v.Query, v.Edit)
			}
			return nil
		})
	}
	err, tried = fault.Retry(ctx, opts.Retries, opts.RetryBackoff, genVariants)
	res.attempts += tried - 1
	if err != nil {
		res.quarantine = &Quarantined{PairID: p.ID, Stage: "variants", Err: err.Error(), Attempts: tried}
		return res
	}
	res.outcome = assembleOutcome(kept, variants, rejected)
	if opts.Cache != nil {
		res.cachePutErr = opts.Cache.Put(p, res.outcome)
	}
	return res
}

// assembleOutcome normalizes a fresh synthesis result into the cacheable,
// assembly-ready form: vis objects without variants are dropped (they never
// become entries) and rejection reasons are bucketed.
func assembleOutcome(kept []*core.VisObject, variants [][]nledit.Variant, rejected []core.Rejection) *PairOutcome {
	out := &PairOutcome{Rejections: map[string]int{}}
	for _, rej := range rejected {
		out.Rejections[bucketReason(rej.Reason)]++
	}
	for i, v := range kept {
		vs := variants[i]
		if len(vs) == 0 {
			continue
		}
		nls := make([]string, len(vs))
		manual := false
		for j, vr := range vs {
			nls[j] = vr.Text
			if vr.Manual {
				manual = true
			}
		}
		out.Kept = append(out.Kept, CachedVis{
			Vis:      v.Query,
			Edit:     v.Edit,
			Hardness: v.Hardness,
			NLs:      nls,
			Manual:   manual,
		})
	}
	return out
}

// poolSize resolves the configured worker count against the work size.
func poolSize(configured, nPairs int) int {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nPairs {
		w = nPairs
	}
	return max(1, w)
}

// runPool processes pairs concurrently and returns results indexed like
// pairs. Work distribution is racy by design; assembly order is not.
func runPool(ctx context.Context, opts Options, pairs []*spider.Pair) []pairResult {
	workers := poolSize(opts.Workers, len(pairs))
	results := make([]pairResult, len(pairs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = processPair(ctx, opts, pairs[i])
			}
		}()
	}
	for i := range pairs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// quarantineMaxListed caps the detail lines of a quarantine report; the
// summary header always carries the full count.
const quarantineMaxListed = 20

// WriteQuarantine renders the quarantine report: one line per skipped
// pair, stable order (by pair id), plus a summary header. Detail lines
// are capped at quarantineMaxListed with an "… and N more" trailer — a
// fault storm must not scroll the report off the terminal. The format is
// documented in README.md ("Quarantine report").
func WriteQuarantine(w io.Writer, b *Benchmark) {
	if len(b.Quarantine) == 0 {
		fmt.Fprintf(w, "quarantine: 0 of %d pairs skipped\n", b.Stats.PairsProcessed)
		return
	}
	fmt.Fprintf(w, "quarantine: %d of %d pairs skipped\n", len(b.Quarantine), b.Stats.PairsProcessed)
	shown := b.Quarantine
	if len(shown) > quarantineMaxListed {
		shown = shown[:quarantineMaxListed]
	}
	for _, q := range shown {
		fmt.Fprintf(w, "  pair %-6d stage=%-10s attempts=%d  %s\n", q.PairID, q.Stage, q.Attempts, q.Err)
	}
	if n := len(b.Quarantine) - len(shown); n > 0 {
		fmt.Fprintf(w, "  … and %d more\n", n)
	}
}
