// Package bench assembles the full nvBench-style benchmark: it runs the
// nl2sql-to-nl2vis synthesizer (package core) over a Spider-like corpus
// (package spider), generates NL variants for every kept vis (package
// nledit), and exposes the dataset statistics the paper reports in
// Section 3 (Tables 2–3, Figures 8–10).
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"nvbench/internal/ast"
	"nvbench/internal/bleu"
	"nvbench/internal/core"
	"nvbench/internal/dataset"
	"nvbench/internal/fault"
	"nvbench/internal/nledit"
	"nvbench/internal/obs"
	"nvbench/internal/spider"
)

// Entry is one (nl*, vis) benchmark record: a vis query over a database
// with its NL variants and provenance.
type Entry struct {
	ID       int
	PairID   int // source (nl, sql) pair
	DB       *dataset.Database
	SourceNL string
	Vis      *ast.Query
	NLs      []string
	Manual   bool // NL came from the deletion-revision path
	Hardness ast.Hardness
	Chart    ast.ChartType
	Edit     core.Edit
}

// Benchmark is the assembled NL2VIS benchmark.
type Benchmark struct {
	Corpus  *spider.Corpus
	Entries []*Entry
	// Rejections counts filtered candidates by reason (Section 2.4 buckets).
	Rejections map[string]int
	// Quarantine lists source pairs skipped after exhausting retries,
	// in source-pair order.
	Quarantine []Quarantined
	// Stats summarizes the build's robustness events.
	Stats RunStats
}

// Options configure assembly.
type Options struct {
	Synth *core.Synthesizer
	Edit  *nledit.Editor
	// MaxPairs truncates the corpus for fast runs (0 = all).
	MaxPairs int
	// MaxVisPerPair bounds kept vis per source pair, keeping the benchmark
	// balanced across sources (0 = no bound).
	MaxVisPerPair int
	// Workers sizes the synthesis worker pool (0 = GOMAXPROCS).
	Workers int
	// Retries is the attempt budget per pair stage for transient failures
	// (values < 1 mean a single attempt).
	Retries int
	// RetryBackoff is the wait schedule between attempts.
	RetryBackoff fault.Backoff
	// Obs receives build counters and one timed record per pair and per
	// pipeline stage: a stage histogram observation plus a wide event
	// carrying the pair's op ID. Nil disables instrumentation; either way
	// the assembled benchmark is byte-identical.
	Obs *obs.Instruments
}

// DefaultOptions returns the paper-default pipeline configuration.
func DefaultOptions() Options {
	return Options{
		Synth:         core.New(),
		Edit:          nledit.New(1),
		MaxVisPerPair: 8,
		Retries:       3,
		RetryBackoff:  fault.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// Build assembles a benchmark from a corpus. Per-pair synthesis runs on a
// worker pool with panic recovery and bounded retries; pairs that still
// fail are quarantined (see Benchmark.Quarantine), never fatal. The
// assembled benchmark is byte-identical to a serial build: workers only
// compute, and entries are assembled in source-pair order.
func Build(corpus *spider.Corpus, opts Options) (*Benchmark, error) {
	if opts.Synth == nil {
		opts.Synth = core.New()
	}
	if opts.Edit == nil {
		opts.Edit = nledit.New(1)
	}
	if opts.Retries < 1 {
		opts.Retries = 1
	}
	if opts.Obs != nil && opts.Synth.Obs == nil {
		// Instrument a copy: the caller's synthesizer must not keep
		// recording into this build's instruments.
		synth := *opts.Synth
		synth.Obs = opts.Obs
		opts.Synth = &synth
	}
	b := &Benchmark{Corpus: corpus, Rejections: map[string]int{}}
	pairs := corpus.Pairs
	if opts.MaxPairs > 0 && len(pairs) > opts.MaxPairs {
		pairs = pairs[:opts.MaxPairs]
	}
	var degraded0 int64
	if opts.Synth.Filter != nil {
		degraded0 = opts.Synth.Filter.DegradedCount()
	}
	results := runPool(context.Background(), opts, pairs)
	for _, r := range results {
		if r.attempts > 0 {
			b.Stats.RetriedAttempts += r.attempts - 1
		}
		if r.quarantine != nil {
			b.Quarantine = append(b.Quarantine, *r.quarantine)
			continue
		}
		for reason, n := range r.rejections {
			b.Rejections[reason] += n
		}
		for _, e := range r.entries {
			e.ID = len(b.Entries)
			b.Entries = append(b.Entries, e)
		}
	}
	b.Stats.Workers = poolSize(opts.Workers, len(pairs))
	b.Stats.PairsProcessed = len(pairs)
	b.Stats.PairsQuarantined = len(b.Quarantine)
	if opts.Synth.Filter != nil {
		b.Stats.ClassifierFallbacks = opts.Synth.Filter.DegradedCount() - degraded0
	}
	if in := opts.Obs; in != nil {
		in.Add(obs.PairsSynthesized, int64(b.Stats.PairsProcessed))
		in.Add(obs.Quarantined, int64(b.Stats.PairsQuarantined))
		in.Add(obs.Retries, int64(b.Stats.RetriedAttempts))
		in.Add(obs.ClassifierFallbacks, b.Stats.ClassifierFallbacks)
	}
	return b, nil
}

// diverseTruncate keeps at most n vis objects, round-robining across chart
// types so one chart family (bars, in practice) cannot crowd out the rarer
// types that Table 3 tracks.
func diverseTruncate(kept []*core.VisObject, n int) []*core.VisObject {
	byChart := map[ast.ChartType][]*core.VisObject{}
	var order []ast.ChartType
	for _, v := range kept {
		ct := v.Query.Visualize
		if _, ok := byChart[ct]; !ok {
			order = append(order, ct)
		}
		byChart[ct] = append(byChart[ct], v)
	}
	// First pass: one representative of each non-bar type (rarer types
	// first in discovery order) so the benchmark keeps line/scatter/stacked
	// coverage; remaining slots fill in original order, which is bar-heavy —
	// matching Table 3's ~76% bar share.
	taken := map[*core.VisObject]bool{}
	var out []*core.VisObject
	for _, ct := range order {
		// Bars and pies are plentiful; they compete for the remaining slots
		// below. Only genuinely rare types get a guaranteed slot.
		if ct == ast.Bar || ct == ast.Pie || len(out) >= n {
			continue
		}
		v := byChart[ct][0]
		out = append(out, v)
		taken[v] = true
	}
	typeCount := map[ast.ChartType]int{}
	for _, v := range out {
		typeCount[v.Query.Visualize]++
	}
	for _, v := range kept {
		if len(out) >= n {
			break
		}
		ct := v.Query.Visualize
		if taken[v] || (ct != ast.Bar && typeCount[ct] >= 1) {
			continue
		}
		out = append(out, v)
		taken[v] = true
		typeCount[ct]++
	}
	return out
}

// bucketReason folds free-form rejection reasons into the Section 2.4
// failure families.
func bucketReason(reason string) string {
	switch {
	case strings.Contains(reason, "transient"):
		return "transient failure"
	case strings.Contains(reason, "single value"):
		return "single value"
	case strings.Contains(reason, "slices"):
		return "pie with many slices"
	case strings.Contains(reason, "categories"):
		return "bar with too many categories"
	case strings.Contains(reason, "qualitative"):
		return "line with qualitative variables"
	case strings.Contains(reason, "classifier"):
		return "classifier"
	case strings.Contains(reason, "empty"):
		return "empty result"
	default:
		return "other"
	}
}

// NumPairs returns the total number of (nl, vis) pairs (each NL variant
// counts once, as in Table 3).
func (b *Benchmark) NumPairs() int {
	n := 0
	for _, e := range b.Entries {
		n += len(e.NLs)
	}
	return n
}

// Digest is the hex SHA-256 of every field of every entry a build
// produces, in entry order: the fingerprint that pins a reference corpus.
func Digest(b *Benchmark) string {
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

// ChartStats is one Table 3 row.
type ChartStats struct {
	Chart      ast.ChartType
	NumVis     int
	NumPairs   int
	PairsPer   float64
	AvgWords   float64
	MaxWords   int
	MinWords   int
	AvgBLEU    float64
	bleuCount  int
	totalWords int
}

// Table3 computes the per-chart-type statistics of Table 3.
func (b *Benchmark) Table3() []*ChartStats {
	byChart := map[ast.ChartType]*ChartStats{}
	for _, ct := range ast.ChartTypes {
		byChart[ct] = &ChartStats{Chart: ct, MinWords: 1 << 30}
	}
	for _, e := range b.Entries {
		st := byChart[e.Chart]
		if st == nil {
			continue
		}
		st.NumVis++
		st.NumPairs += len(e.NLs)
		nls := bleu.Prepare(e.NLs)
		for i := range e.NLs {
			w := nls.Words(i)
			st.totalWords += w
			if w > st.MaxWords {
				st.MaxWords = w
			}
			if w < st.MinWords {
				st.MinWords = w
			}
		}
		if len(e.NLs) >= 2 {
			st.AvgBLEU += nls.Pairwise()
			st.bleuCount++
		}
	}
	out := make([]*ChartStats, 0, len(ast.ChartTypes))
	for _, ct := range ast.ChartTypes {
		st := byChart[ct]
		if st.NumVis > 0 {
			st.PairsPer = float64(st.NumPairs) / float64(st.NumVis)
		}
		if st.NumPairs > 0 {
			st.AvgWords = float64(st.totalWords) / float64(st.NumPairs)
		}
		if st.bleuCount > 0 {
			st.AvgBLEU /= float64(st.bleuCount)
		}
		if st.MinWords == 1<<30 {
			st.MinWords = 0
		}
		out = append(out, st)
	}
	return out
}

// TypeHardnessMatrix counts vis by chart type and hardness (Figure 10).
func (b *Benchmark) TypeHardnessMatrix() map[ast.ChartType]map[ast.Hardness]int {
	m := map[ast.ChartType]map[ast.Hardness]int{}
	for _, ct := range ast.ChartTypes {
		m[ct] = map[ast.Hardness]int{}
	}
	for _, e := range b.Entries {
		m[e.Chart][e.Hardness]++
	}
	return m
}

// HardnessCounts counts entries per hardness level.
func (b *Benchmark) HardnessCounts() map[ast.Hardness]int {
	out := map[ast.Hardness]int{}
	for _, e := range b.Entries {
		out[e.Hardness]++
	}
	return out
}

// ManualFraction returns the fraction of vis objects whose NL required the
// manual (deletion) path — the paper reports 25.36%.
func (b *Benchmark) ManualFraction() float64 {
	if len(b.Entries) == 0 {
		return 0
	}
	n := 0
	for _, e := range b.Entries {
		if e.Manual {
			n++
		}
	}
	return float64(n) / float64(len(b.Entries))
}

// Split partitions entries into train/validation/test by fractions using a
// deterministic interleave (the paper uses 80 / 4.5 / 15.5).
func (b *Benchmark) Split(trainFrac, valFrac float64, seed int64) (train, val, test []*Entry) {
	entries := append([]*Entry(nil), b.Entries...)
	// Deterministic shuffle via seeded index permutation.
	n := len(entries)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int((uint64(s) >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	for i, pi := range perm {
		switch {
		case i < nTrain:
			train = append(train, entries[pi])
		case i < nTrain+nVal:
			val = append(val, entries[pi])
		default:
			test = append(test, entries[pi])
		}
	}
	return train, val, test
}

// SortedRejectionReasons lists rejection buckets by count (descending).
func (b *Benchmark) SortedRejectionReasons() []string {
	keys := make([]string, 0, len(b.Rejections))
	for k := range b.Rejections {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if b.Rejections[keys[i]] != b.Rejections[keys[j]] {
			return b.Rejections[keys[i]] > b.Rejections[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
