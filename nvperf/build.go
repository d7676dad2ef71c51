package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/dataset"
	"nvbench/internal/deepeye"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
)

// The reference corpus (EXPERIMENTS.md: seed 1) and what building it must
// give: entry and (nl, vis) pair counts and a digest of every entry.
const (
	pinnedSeed    = 1
	pinnedEntries = 2331
	pinnedNLPairs = 9351
	pinnedDigest  = "123128b151f8cf5b806aa7a36ad2f6688a747712df02e3cd7e22457f27406e30"
)

// buildCorpora is how many corpora a build run rotates through. One
// 40-database corpus's build time depends on its seed: over 160 seeds the
// middle 80% ran 250-440 ms of CPU and one ran 930 ms. Over draws of 64
// corpora from those 160, the median build time's spread (IQR over median)
// was 4%; over 32 it was 8%.
const buildCorpora = 64

// Timed reference rounds per sample: after each set-up (0.5-2.5 s of CPU)
// and after each build (0.3-0.5 s).
const (
	setupRefRounds = 40
	buildRefRounds = 16
)

// corpusConfig is the pinned corpus shape with the given seed.
func corpusConfig(seed int64) spider.Config {
	return spider.Config{Seed: seed, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000}
}

// corpusSeeds derives n corpus seeds from a workload seed; the first is the
// workload seed itself, so seed 1 always builds the reference corpus.
func corpusSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(i)*1_000_003
	}
	return out
}

// generateCorpus generates the corpus for seed. spider.Generate fails on a
// few seeds (about 1 in 1,000; seed 71 draws a negative BETWEEN bound that
// sqlparser cannot lex). Such a seed is reported on standard error, counted
// in failures, and replaced by the next one, so the defect shows in
// spider.generate_failures instead of stopping the run.
func generateCorpus(seed int64) (c *spider.Corpus, used int64, failures int, err error) {
	for used = seed; failures < 8; used++ {
		if c, err = spider.Generate(corpusConfig(used)); err == nil {
			return c, used, failures, nil
		}
		fmt.Fprintf(os.Stderr, "nvperf: corpus seed %d: %v; using seed %d\n", used, err, used+1)
		failures++
	}
	return nil, 0, failures, err
}

// trainFilter trains the DeepEye filter exactly as deepeye.NewFilter does.
// NewFilter trains once per process and caches the classifier, so the
// benchmark calls the training itself to time it in every set-up.
func trainFilter(tr *tracer) *deepeye.Filter {
	tr.begin("deepeye.train")
	defer tr.end()
	return &deepeye.Filter{Clf: deepeye.Train(deepeye.SyntheticTrainingSet(6000, 0.05, 99), 25, 0.05, 7)}
}

// buildOptions is the paper-default pipeline with the given filter and one
// worker: at two workers on two shared cores, build times spread twice as
// wide.
func buildOptions(filter *deepeye.Filter) bench.Options {
	opts := bench.DefaultOptions()
	opts.Synth.Filter = filter
	opts.Workers = 1
	return opts
}

// checkFilter fails unless filter's classifier is the one NewFilter trains.
func checkFilter(filter *deepeye.Filter) error {
	if !reflect.DeepEqual(filter.Clf, deepeye.NewFilter().Clf) {
		return fmt.Errorf("trained classifier differs from deepeye.NewFilter's")
	}
	return nil
}

// digest hashes every field of every entry that a build produces.
func digest(b *bench.Benchmark) string {
	h := sha256.New()
	for _, e := range b.Entries {
		fmt.Fprintf(h, "%d|%d|%s|%s|%s|%t|%s|%s|", e.ID, e.PairID, e.DB.Name, e.SourceNL, e.Vis, e.Manual, e.Hardness, e.Chart)
		for _, op := range e.Edit.Ops {
			fmt.Fprintf(h, "%s:%s;", op.Kind, op.Attr.Key())
		}
		for _, nl := range e.NLs {
			fmt.Fprintf(h, "\n\t%s", nl)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildChecker checks build outputs: the reference corpus against its
// pinned counts and digest, every other corpus against its first build.
type buildChecker map[int64]string

func (bc buildChecker) check(b *bench.Benchmark, err error, c *spider.Corpus, corpusSeed int64) error {
	if err != nil {
		return err
	}
	if len(b.Quarantine) > 0 || b.Stats.PairsProcessed != len(c.Pairs) {
		return fmt.Errorf("corpus seed %d: %d of %d pairs processed, %d quarantined",
			corpusSeed, b.Stats.PairsProcessed, len(c.Pairs), len(b.Quarantine))
	}
	d := digest(b)
	if corpusSeed == pinnedSeed && (len(b.Entries) != pinnedEntries || b.NumPairs() != pinnedNLPairs || d != pinnedDigest) {
		return fmt.Errorf("reference corpus built %d entries, %d pairs, digest %s; want %d, %d, %s",
			len(b.Entries), b.NumPairs(), d, pinnedEntries, pinnedNLPairs, pinnedDigest)
	}
	if want, ok := bc[corpusSeed]; ok && d != want {
		return fmt.Errorf("corpus seed %d built digest %s, its first build gave %s", corpusSeed, d, want)
	}
	bc[corpusSeed] = d
	return nil
}

// buildState is what a build set-up leaves for the measured phase.
type buildState struct {
	filter *deepeye.Filter
	// seeds are the run's corpus seeds; a seed spider.Generate rejected is
	// replaced by the one it took instead.
	seeds    []int64
	failures int // corpus seeds spider.Generate rejected
	// last is the latest build. heap_mb is the median over builds of the
	// live heap right after one, with the filter, the build and the corpus
	// databases its entries point to reachable: what a process that built
	// one corpus holds.
	last *bench.Benchmark
}

// corpus generates the run's k-th corpus. The measured phase generates
// each corpus again, untimed, right before building it, so that only the
// corpus being built and the previous build are live, as in a process that
// builds one corpus: with all 64 corpora held (200 MB), every collection
// during a build marked them all, and the collector's share of a build
// swung from run to run.
func (st *buildState) corpus(k int) (*spider.Corpus, error) {
	c, used, failures, err := generateCorpus(st.seeds[k])
	st.seeds[k] = used
	st.failures += failures
	return c, err
}

// setupBuild trains the filter and generates the run's first corpus.
func setupBuild(seed int64, tr *tracer) (*buildState, error) {
	st := &buildState{filter: trainFilter(tr), seeds: corpusSeeds(seed, buildCorpora)}
	tr.begin("spider.generate")
	defer tr.end()
	if _, err := st.corpus(0); err != nil {
		return nil, err
	}
	return st, nil
}

func runBuild(cfg config, tr *tracer) (*report, error) {
	var st *buildState
	work := newRefWork()
	setupRef := newYardstick(work, setupRefRounds)
	var setups []time.Duration
	for range setupsPerRun {
		// Each set-up starts from the same heap, as in a fresh process.
		st = nil
		runtime.GC()
		t0 := cpuNow()
		s, err := setupBuild(cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuNow()-t0)
		setupRef.sample()
		st = s
	}
	if err := checkFilter(st.filter); err != nil {
		return nil, err
	}
	opts := buildOptions(st.filter)
	rep := &report{metrics: map[string]float64{}}
	checker := buildChecker{}
	if tr != nil {
		if err := traceBuild(cfg, tr, st, opts, rep, checker); err != nil {
			return nil, err
		}
		rep.finish(setupRef.scaledAll(setups), liveHeapMB(st))
		return rep, nil
	}

	// The reference work is sampled after every build.
	opRef := newYardstick(work, buildRefRounds)
	var durs []time.Duration
	var pairs, heaps []float64
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % buildCorpora
		c, err := st.corpus(k)
		if err != nil {
			return nil, err
		}
		t0 := cpuNow()
		b, err := bench.Build(c, opts)
		durs = append(durs, cpuNow()-t0)
		pairs = append(pairs, float64(len(c.Pairs)))
		rep.check(checker.check(b, err, c, st.seeds[k]))
		st.last = b
		heaps = append(heaps, liveHeapMB(st))
		opRef.sample()
	}
	scaled := opRef.scaledAll(durs)
	rep.metrics["op_scaled_p50_ms"] = ms(median(scaled))
	rep.metrics["throughput_scaled_per_s"] = medianRate(pairs, scaled)
	slices.Sort(heaps)
	rep.finish(setupRef.scaledAll(setups), heaps[len(heaps)/2])
	logUnscaled(durs, opRef)
	return rep, nil
}

// replayCounts tallies what a serial replay saw.
type replayCounts struct {
	pairs, candidates, kept, entries, variants int
}

// replayCorpus re-runs the synthesizer's layers serially for every pair of
// c, each call inside its own span, and checks the replay against b, a
// bench.Build of c: every entry's vis must be among the replay's kept
// candidates, and nledit must give the entry's NL variants exactly. NL
// editing runs only for the entries' vis, since bench.Build truncates each
// pair's kept set before NL editing.
func replayCorpus(tr *tracer, rep *report, c *spider.Corpus, b *bench.Benchmark, opts bench.Options, n *replayCounts) {
	byPair := map[int][]*bench.Entry{}
	for _, e := range b.Entries {
		byPair[e.PairID] = append(byPair[e.PairID], e)
	}
	for _, p := range c.Pairs {
		rep.check(replayPair(tr, p, byPair[p.ID], opts, n))
	}
}

func replayPair(tr *tracer, p *spider.Pair, entries []*bench.Entry, opts bench.Options, n *replayCounts) error {
	tr.begin("pair")
	defer tr.end()
	n.pairs++
	tr.begin("sqlparser.parse")
	q, err := sqlparser.TryParse(p.SQL, p.DB)
	tr.end()
	if err != nil {
		return fmt.Errorf("pair %d: parse: %w", p.ID, err)
	}
	if q.String() != p.Query.String() {
		return fmt.Errorf("pair %d: parsed %q, corpus has %q", p.ID, q, p.Query)
	}
	tr.begin("core.candidates")
	cands := opts.Synth.Candidates(p.DB, q)
	tr.end()
	n.candidates += len(cands)
	kept := map[string]bool{}
	for _, cand := range cands {
		tr.begin("dataset.execute")
		res, err := dataset.Execute(p.DB, cand.Query)
		tr.end()
		if err != nil {
			continue // bench.Build rejects it as an execution failure
		}
		tr.begin("deepeye.featurize")
		f := deepeye.FromResult(p.DB, cand.Query, res)
		tr.end()
		tr.begin("deepeye.rules")
		ok, _ := deepeye.RuleCheck(f)
		tr.end()
		if !ok {
			continue
		}
		tr.begin("deepeye.classify")
		good, _ := opts.Synth.Filter.PredictSafe(f)
		tr.end()
		if good {
			kept[cand.Query.String()] = true
			n.kept++
		}
	}
	for _, e := range entries {
		n.entries++
		if !kept[e.Vis.String()] {
			return fmt.Errorf("pair %d: entry %d's vis %q not among the replay's kept candidates", p.ID, e.ID, e.Vis)
		}
		tr.begin("nledit.variants")
		vs := opts.Edit.Variants(p.NL, e.Vis, e.Edit)
		tr.end()
		n.variants += len(vs)
		texts := make([]string, len(vs))
		for i, v := range vs {
			texts[i] = v.Text
		}
		if !slices.Equal(texts, e.NLs) {
			return fmt.Errorf("pair %d: entry %d: replayed variants %q, build gave %q", p.ID, e.ID, texts, e.NLs)
		}
	}
	return nil
}

// synthLayers are the replay spans that split a build's time. Parsing is
// not among them: bench.Build takes each pair's query as the corpus parsed
// it in spider.Generate, so the replay's parse spans are set-up work.
var synthLayers = []string{"core.candidates", "dataset.execute",
	"deepeye.featurize", "deepeye.rules", "deepeye.classify", "nledit.variants"}

// traceBuild alternates a timed bench.Build of each corpus with a traced
// replay of the same corpus until the run's time is up, after one replay in
// alloc mode.
func traceBuild(cfg config, tr *tracer, st *buildState, opts bench.Options, rep *report, checker buildChecker) error {
	var n replayCounts
	c, err := st.corpus(0)
	if err != nil {
		return err
	}
	b, err := bench.Build(c, opts)
	rep.check(checker.check(b, err, c, st.seeds[0]))
	if err != nil {
		return err
	}
	st.last = b
	tr.allocs = true
	replayCorpus(tr, rep, c, b, opts, &n)
	tr.allocs = false

	n = replayCounts{}
	var builds []time.Duration
	replays := 0
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % buildCorpora
		c, err := st.corpus(k)
		if err != nil {
			return err
		}
		tr.begin("bench.build")
		t0 := time.Now()
		b, err := bench.Build(c, opts)
		builds = append(builds, time.Since(t0))
		tr.end()
		rep.check(checker.check(b, err, c, st.seeds[k]))
		if err != nil {
			return err
		}
		st.last = b
		replayCorpus(tr, rep, c, b, opts, &n)
		replays++
	}

	m := rep.metrics
	m["deepeye.train_ms"] = ms(median(tr.layer("deepeye.train").durs))
	m["spider.generate_ms"] = ms(median(tr.layer("spider.generate").durs))
	m["spider.generate_failures"] = float64(st.failures)
	parse, exec := tr.layer("sqlparser.parse"), tr.layer("dataset.execute")
	m["sqlparser.parse_us_p50"] = us(median(parse.durs))
	m["sqlparser.calls"] = float64(parse.count) / float64(replays)
	m["core.candidates_ms"] = tr.selfPer("core.candidates", replays)
	m["core.candidates_per_pair"] = float64(n.candidates) / float64(max(n.pairs, 1))
	m["dataset.execute_ms"] = tr.selfPer("dataset.execute", replays)
	m["dataset.execute_calls"] = float64(exec.count) / float64(replays)
	m["dataset.execute_us_p50"] = us(median(exec.durs))
	m["deepeye.featurize_ms"] = tr.selfPer("deepeye.featurize", replays)
	m["deepeye.rules_ms"] = tr.selfPer("deepeye.rules", replays)
	m["deepeye.classify_ms"] = tr.selfPer("deepeye.classify", replays)
	m["deepeye.kept_ratio"] = float64(n.kept) / float64(max(n.candidates, 1))
	m["nledit.variants_ms"] = tr.selfPer("nledit.variants", replays)
	m["nledit.variants_per_vis"] = float64(n.variants) / float64(max(n.entries, 1))
	buildMs := ms(sum(builds)) / float64(len(builds))
	layers := 0.0
	for _, l := range synthLayers {
		layers += tr.selfPer(l, replays)
	}
	m["bench.build_ms"] = buildMs
	// What bench.Build spends outside the layers (its worker pool, retries,
	// truncation and entry assembly) is smaller than the gap between a
	// build's wall time and its replay's, which moves by a few percent
	// either way with the host's load: assembly reads within some 20 ms of
	// zero, coverage between about 0.95 and 1.05.
	m["bench.assembly_ms"] = buildMs - layers
	m["build.coverage_ratio"] = layers / buildMs
	m["sqlparser.alloc_mb"] = tr.allocMBPer("sqlparser.parse", 1)
	m["core.alloc_mb"] = tr.allocMBPer("core.candidates", 1)
	m["dataset.alloc_mb"] = tr.allocMBPer("dataset.execute", 1)
	m["deepeye.alloc_mb"] = tr.allocMBPer("deepeye.featurize", 1) + tr.allocMBPer("deepeye.rules", 1) + tr.allocMBPer("deepeye.classify", 1)
	m["nledit.alloc_mb"] = tr.allocMBPer("nledit.variants", 1)
	return nil
}
