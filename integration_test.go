package nvbench_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"nvbench/internal/ast"
	"nvbench/internal/bench"
	"nvbench/internal/bleu"
	"nvbench/internal/dataset"
	"nvbench/internal/render"
	"nvbench/internal/seq2vis"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
)

// smallBenchmark builds one compact end-to-end benchmark for integration
// tests (independent of the benchmark-suite singletons, which are larger).
func smallBenchmark(t *testing.T) *bench.Benchmark {
	t.Helper()
	corpus, err := spider.Generate(spider.Config{Seed: 2, NumDatabases: 6, PairsPerDB: 10, MaxRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) == 0 {
		t.Fatal("empty benchmark")
	}
	return b
}

// TestPipelineEndToEnd drives corpus generation through synthesis, NL
// editing, execution, and rendering, checking the invariants that connect
// the packages.
func TestPipelineEndToEnd(t *testing.T) {
	b := smallBenchmark(t)
	for _, e := range b.Entries {
		// Every vis executes against its database.
		res, err := dataset.Execute(e.DB, e.Vis)
		if err != nil {
			t.Fatalf("entry %d does not execute: %v", e.ID, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("entry %d has an empty result", e.ID)
		}
		// The canonical token form is stable.
		rt, err := ast.ParseTokens(e.Vis.Tokens())
		if err != nil || !rt.Equal(e.Vis) {
			t.Fatalf("entry %d token round trip failed: %v", e.ID, err)
		}
		// Every entry renders to valid Vega-Lite and ECharts JSON.
		for _, renderFn := range []func(*dataset.Database, *ast.Query) ([]byte, error){render.VegaLite, render.ECharts} {
			raw, err := renderFn(e.DB, e.Vis)
			if err != nil {
				t.Fatalf("entry %d render failed: %v (%s)", e.ID, err, e.Vis)
			}
			var v map[string]any
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatalf("entry %d render produced invalid JSON: %v", e.ID, err)
			}
		}
	}
}

// TestBenchmarkDistributionShapes asserts the headline distributional claims
// of Section 3 on a freshly built benchmark.
func TestBenchmarkDistributionShapes(t *testing.T) {
	b := smallBenchmark(t)
	t3 := b.Table3()
	var barVis, total int
	for _, row := range t3 {
		total += row.NumVis
		if row.Chart == ast.Bar {
			barVis = row.NumVis
		}
	}
	if float64(barVis) < 0.4*float64(total) {
		t.Errorf("bars should dominate: %d of %d", barVis, total)
	}
	h := b.HardnessCounts()
	if h[ast.Medium] == 0 || h[ast.Medium] < h[ast.ExtraHard] {
		t.Errorf("hardness distribution off: %v", h)
	}
	// NL diversity in the paper's neighbourhood (Table 3: overall 0.337;
	// accept the templated corpus's wider band).
	diversity := 0.0
	n := 0
	for _, e := range b.Entries {
		if len(e.NLs) >= 2 {
			diversity += bleu.Pairwise(e.NLs)
			n++
		}
	}
	if n > 0 && diversity/float64(n) > 0.8 {
		t.Errorf("NL variants too repetitive: mean pairwise BLEU %.3f", diversity/float64(n))
	}
}

// TestSeq2VisDataRoundTrip checks that every benchmark entry survives the
// learning pipeline's masking and token re-parsing.
func TestSeq2VisDataRoundTrip(t *testing.T) {
	b := smallBenchmark(t)
	examples := seq2vis.ExamplesFromEntries(b.Entries)
	if len(examples) < len(b.Entries) {
		t.Fatalf("examples %d < entries %d", len(examples), len(b.Entries))
	}
	for _, ex := range examples {
		masked, err := ast.ParseTokens(ex.Output)
		if err != nil {
			t.Fatalf("masked output unparseable: %v", err)
		}
		seq2vis.FillValues(masked, ex.NL, ex.DB)
		if err := masked.Validate(); err != nil {
			t.Fatalf("filled tree invalid: %v", err)
		}
	}
	if acc := seq2vis.ValueFillAccuracy(examples); acc < 0.7 {
		t.Errorf("value-fill accuracy %.3f below expectation", acc)
	}
}

// TestReferenceCorpusDigest pins the seed-1, 40-database reference corpus
// (EXPERIMENTS.md): its entry and (nl, vis) pair counts, the digest of
// every synthesized entry, and its Table 3. A change that moves any entry,
// or any Table 3 statistic by as much as its last bit, fails here.
func TestReferenceCorpusDigest(t *testing.T) {
	corpus, b := corpusAndBench(t)
	const (
		wantEntries = 2331
		wantPairs   = 9351
		wantDigest  = "123128b151f8cf5b806aa7a36ad2f6688a747712df02e3cd7e22457f27406e30"
	)
	if len(b.Entries) != wantEntries || b.NumPairs() != wantPairs {
		t.Fatalf("reference corpus built %d entries and %d pairs, want %d and %d",
			len(b.Entries), b.NumPairs(), wantEntries, wantPairs)
	}
	if got := bench.Digest(b); got != wantDigest {
		t.Fatalf("reference corpus digest %s, want %s", got, wantDigest)
	}

	// The report prints BLEU to three decimals, so the rows are also hashed
	// at full precision: %v of a float64 round-trips exactly, and these are
	// the values /api/query serves from its stats table.
	const (
		wantReportHash = "41d6b70f29d198545c6311742ede54e1b070c034125ac0025d10c1bc747ac420"
		wantReportLen  = 757
		wantRowsHash   = "01b309cb45fb21236888f831dc83d4bc8ecac5610f61d1e9d11e00117ae3ac26"
	)
	rows := b.Table3()
	var report bytes.Buffer
	bench.WriteTable3(&report, rows, len(b.Entries), b.NumPairs())
	if sum := sha256.Sum256(report.Bytes()); hex.EncodeToString(sum[:]) != wantReportHash || report.Len() != wantReportLen {
		t.Errorf("Table 3 report is %d bytes, sha256 %x; want %d bytes, %s:\n%s",
			report.Len(), sum, wantReportLen, wantReportHash, report.String())
	}
	h := sha256.New()
	var barVis, vis int
	for _, r := range rows {
		fmt.Fprintf(h, "%v %v %v %v %v %v %v %v\n",
			r.Chart, r.NumVis, r.NumPairs, r.PairsPer, r.AvgWords, r.MaxWords, r.MinWords, r.AvgBLEU)
		vis += r.NumVis
		if r.Chart == ast.Bar {
			barVis = r.NumVis
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(rows) != 7 || got != wantRowsHash {
		t.Errorf("Table 3 has %d rows hashing to %s, want 7 rows hashing to %s", len(rows), got, wantRowsHash)
	}
	// Shape: bars are 75.7% of the reference corpus's vis queries.
	if share := 100 * float64(barVis) / float64(vis); share < 70.7 || share > 80.7 {
		t.Errorf("bars are %.1f%% of %d vis queries, want 75.7%% ± 5 points", share, vis)
	}

	// Table 2: the column-type mix is 737 / 145 / 205 of 1,087 columns,
	// categorical the largest.
	t2 := bench.ComputeTable2(corpus)
	for _, c := range []struct {
		ct   dataset.ColType
		want float64
	}{{dataset.Categorical, 67.8}, {dataset.Temporal, 13.3}, {dataset.Quantitative, 18.9}} {
		if got := 100 * t2.TypeFrac[c.ct]; math.Abs(got-c.want) > 3 {
			t.Errorf("Table 2: %v columns are %.1f%% of %d, want %.1f%% ± 3 points", c.ct, got, t2.Columns, c.want)
		}
		if c.ct != dataset.Categorical && t2.TypeCounts[c.ct] >= t2.TypeCounts[dataset.Categorical] {
			t.Errorf("Table 2: %d %v columns, not fewer than the %d categorical ones",
				t2.TypeCounts[c.ct], c.ct, t2.TypeCounts[dataset.Categorical])
		}
	}
	// Figure 10: medium is the largest hardness bucket (1,110 of 2,331),
	// bar the most common chart type, and all seven types occur.
	hardness := b.HardnessCounts()
	for _, h := range ast.AllHardness {
		if h != ast.Medium && hardness[h] >= hardness[ast.Medium] {
			t.Errorf("Figure 10: %d %v entries, not fewer than the %d medium ones", hardness[h], h, hardness[ast.Medium])
		}
	}
	charts := map[ast.ChartType]int{}
	for ct, row := range b.TypeHardnessMatrix() {
		for _, n := range row {
			charts[ct] += n
		}
	}
	for _, ct := range ast.ChartTypes {
		if charts[ct] == 0 {
			t.Errorf("Figure 10: no %v entries; all seven chart types must occur", ct)
		}
		if ct != ast.Bar && charts[ct] >= charts[ast.Bar] {
			t.Errorf("Figure 10: %d %v entries, not fewer than the %d bars", charts[ct], ct, charts[ast.Bar])
		}
	}
	// §3.1: 27.4% of vis queries took the manual NL path.
	if got := 100 * b.ManualFraction(); math.Abs(got-27.4) > 3 {
		t.Errorf("§3.1: manual NL fraction %.1f%%, want 27.4%% ± 3 points", got)
	}
}

// TestReferenceCandidateResults pins what the executor returns for every
// candidate the synthesizer enumerates over the reference corpus, the
// rejected ones included: they reach more executor paths (empty relations,
// failing subqueries, bad orderings) than the kept ones. Each result is
// hashed column by column and cell by cell, with the cell's kind; a failed
// execution hashes its error text.
func TestReferenceCandidateResults(t *testing.T) {
	corpus, _ := corpusAndBench(t)
	const (
		wantCandidates = 3681
		wantHash       = "04271abd2e49437908b4b48abaf9c549064122b747ba6b05bc5c63af972bed99"
	)
	synth := bench.DefaultOptions().Synth
	h := sha256.New()
	n := 0
	for _, p := range corpus.Pairs {
		for _, c := range synth.Candidates(p.DB, p.Query) {
			n++
			res, err := dataset.Execute(p.DB, c.Query)
			if err != nil {
				fmt.Fprintf(h, "error %q\n", err.Error())
				continue
			}
			fmt.Fprintf(h, "columns %q\n", res.Columns)
			for _, row := range res.Rows {
				for _, cell := range row {
					fmt.Fprintf(h, "%v %q ", cell.Kind, cell.String())
				}
				h.Write([]byte{'\n'})
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); n != wantCandidates || got != wantHash {
		t.Errorf("reference corpus: %d candidates whose results hash to %s, want %d hashing to %s",
			n, got, wantCandidates, wantHash)
	}
}

// TestExecuteSQLRoundTripDifferential checks dataset.Execute against
// itself through the SQL text: every reference-corpus vis without a
// binning group renders to SQL that re-parses to a tree executing to the
// same rows in the same order. Binned trees are skipped because SQL
// renders binning as a plain GROUP BY (see ast.Query.SQL).
func TestExecuteSQLRoundTripDifferential(t *testing.T) {
	_, b := corpusAndBench(t)
	checked := 0
	for _, e := range b.Entries {
		if hasBinning(e.Vis) {
			continue
		}
		checked++
		sql := e.Vis.SQL()
		q, err := sqlparser.TryParse(sql, e.DB)
		if err != nil {
			t.Errorf("entry %d: %q does not re-parse: %v", e.ID, sql, err)
			continue
		}
		want, err := dataset.Execute(e.DB, e.Vis)
		if err != nil {
			t.Errorf("entry %d: vis does not execute: %v", e.ID, err)
			continue
		}
		got, err := dataset.Execute(e.DB, q)
		if err != nil {
			t.Errorf("entry %d: re-parsed %q does not execute: %v", e.ID, sql, err)
			continue
		}
		if !got.EqualOrdered(want) {
			t.Errorf("entry %d: %q gives %d rows that differ from the vis tree's %d", e.ID, sql, len(got.Rows), len(want.Rows))
		}
	}
	if checked != 1953 {
		t.Errorf("checked %d of %d entries, want the 1,953 without binning", checked, len(b.Entries))
	}
}

// hasBinning reports whether any core of q groups by a binning node.
func hasBinning(q *ast.Query) bool {
	for _, c := range q.Cores() {
		for _, g := range c.Groups {
			if g.Kind == ast.Binning {
				return true
			}
		}
	}
	return false
}
