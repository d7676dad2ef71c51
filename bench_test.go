// Package nvbench_test is the reproduction harness: one benchmark per table
// and figure of the paper's evaluation (see DESIGN.md for the index, and
// EXPERIMENTS.md for paper-vs-measured results). Each benchmark prints the
// reproduced rows once and measures the experiment's computational kernel in
// the timing loop.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package nvbench_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"nvbench/internal/ast"
	"nvbench/internal/bench"
	"nvbench/internal/crowd"
	"nvbench/internal/deepeye"
	"nvbench/internal/nl4dv"
	"nvbench/internal/nledit"
	"nvbench/internal/seq2vis"
	"nvbench/internal/spider"
	"nvbench/internal/stats"
	"nvbench/internal/tpc"
)

// Reproduction scale. The paper's corpus is 153 DBs / 10,181 pairs; the
// bench harness uses a quarter-scale corpus so the full suite completes in
// minutes while preserving every distributional shape.
var benchCfg = spider.Config{Seed: 1, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000}

var (
	corpusOnce sync.Once
	theCorpus  *spider.Corpus
	theBench   *bench.Benchmark
	corpusErr  error
)

// corpusAndBench generates and builds the reference corpus once per test
// binary; the reproduction benchmarks and the reference-corpus tests share
// it.
func corpusAndBench(tb testing.TB) (*spider.Corpus, *bench.Benchmark) {
	tb.Helper()
	corpusOnce.Do(func() {
		theCorpus, corpusErr = spider.Generate(benchCfg)
		if corpusErr == nil {
			theBench, corpusErr = bench.Build(theCorpus, bench.DefaultOptions())
		}
	})
	if corpusErr != nil {
		tb.Fatal(corpusErr)
	}
	return theCorpus, theBench
}

var printOnce sync.Map

// once prints a reproduced experiment block a single time per benchmark run.
func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

func BenchmarkTable2_DatasetStats(b *testing.B) {
	c, _ := corpusAndBench(b)
	b.ResetTimer()
	var t2 bench.Table2
	for i := 0; i < b.N; i++ {
		t2 = bench.ComputeTable2(c)
	}
	b.StopTimer()
	once("table2", func() {
		fmt.Println()
		bench.WriteTable2(os.Stdout, t2)
	})
}

func BenchmarkFigure8_ColumnRowDistributions(b *testing.B) {
	c, _ := corpusAndBench(b)
	b.ResetTimer()
	var f8 bench.Figure8
	for i := 0; i < b.N; i++ {
		f8 = bench.ComputeFigure8(c)
	}
	b.StopTimer()
	once("figure8", func() {
		fmt.Printf("\nFigure 8: tables by #columns %v, by #rows %v\n",
			f8.ColumnHist.Counts, f8.RowHist.Counts)
	})
}

func BenchmarkFigure9_ColumnLevelStats(b *testing.B) {
	c, _ := corpusAndBench(b)
	b.ResetTimer()
	var f9 bench.Figure9
	for i := 0; i < b.N; i++ {
		f9 = bench.ComputeFigure9(c)
	}
	b.StopTimer()
	once("figure9", func() {
		fmt.Printf("\nFigure 9 (%d quantitative columns):\n", f9.QuantColumns)
		fmt.Print("  distributions:")
		for _, d := range append([]stats.Distribution{stats.DistNone}, stats.AllDistributions...) {
			fmt.Printf(" %s=%d", d, f9.DistCounts[d])
		}
		fmt.Printf("\n  skewness: sym=%d mod=%d high=%d  outliers: none=%d few=%d some=%d many=%d\n",
			f9.SkewCounts[stats.ApproxSymmetric], f9.SkewCounts[stats.ModeratelySkewed], f9.SkewCounts[stats.HighlySkewed],
			f9.OutlierCounts[stats.NoOutliers], f9.OutlierCounts[stats.FewOutliers],
			f9.OutlierCounts[stats.SomeOutliers], f9.OutlierCounts[stats.ManyOutliers])
	})
}

func BenchmarkTable3_NLVISStats(b *testing.B) {
	_, bm := corpusAndBench(b)
	b.ResetTimer()
	var rows []*bench.ChartStats
	for i := 0; i < b.N; i++ {
		rows = bm.Table3()
	}
	b.StopTimer()
	once("table3", func() {
		fmt.Println()
		bench.WriteTable3(os.Stdout, rows, len(bm.Entries), bm.NumPairs())
		fmt.Printf("  manual NL fraction: %.2f%% (paper: 25.36%%)\n", 100*bm.ManualFraction())
	})
}

func BenchmarkFigure10_TypesVsHardness(b *testing.B) {
	_, bm := corpusAndBench(b)
	b.ResetTimer()
	var m map[ast.ChartType]map[ast.Hardness]int
	for i := 0; i < b.N; i++ {
		m = bm.TypeHardnessMatrix()
	}
	b.StopTimer()
	once("figure10", func() {
		fmt.Println()
		bench.WriteFigure10(os.Stdout, m)
	})
}

func BenchmarkFigure7_TPCFiltering(b *testing.B) {
	cases := tpc.Figure7(1)
	filter := deepeye.NewFilter()
	b.ResetTimer()
	verdicts := make([]bool, len(cases))
	for i := 0; i < b.N; i++ {
		for j, c := range cases {
			ok, _, _, err := filter.Good(c.DB, c.Query)
			if err != nil {
				b.Fatal(err)
			}
			verdicts[j] = ok
		}
	}
	b.StopTimer()
	once("figure7", func() {
		fmt.Println("\nFigure 7: TPC filtering verdicts")
		for j, c := range cases {
			fmt.Printf("  %s: good=%v (paper expects %v) — %s\n", c.Label, verdicts[j], c.ExpectGood, c.Reason)
			if verdicts[j] != c.ExpectGood {
				fmt.Println("  !! verdict deviates from the paper")
			}
		}
	})
}

func BenchmarkFigure13_ExpertCrowdEvaluation(b *testing.B) {
	_, bm := corpusAndBench(b)
	study := crowd.NewStudy(1)
	b.ResetTimer()
	var expert, workers crowd.T1T2Result
	for i := 0; i < b.N; i++ {
		expert, workers = study.RunT1T2(bm, 0.1, 100)
	}
	b.StopTimer()
	once("figure13", func() {
		fmt.Printf("\nFigure 13: T2 positive rate expert %.1f%% (paper 86.9%%), crowd %.1f%% (paper 88.7%%)\n",
			100*crowd.PositiveRate(expert.T2Dist), 100*crowd.PositiveRate(workers.T2Dist))
		fmt.Printf("  T1 positive rate expert %.1f%% (paper 81.1%%), crowd %.1f%% (paper 85.6%%)\n",
			100*crowd.PositiveRate(expert.T1Dist), 100*crowd.PositiveRate(workers.T1Dist))
	})
}

func BenchmarkFigure12_InterRater(b *testing.B) {
	_, bm := corpusAndBench(b)
	study := crowd.NewStudy(2)
	b.ResetTimer()
	var pairs []crowd.InterRaterPair
	for i := 0; i < b.N; i++ {
		pairs = study.InterRater(bm, 50)
	}
	b.StopTimer()
	once("figure12", func() {
		classes := map[crowd.AgreementClass]int{}
		for _, p := range pairs {
			classes[p.Class()]++
		}
		fmt.Printf("\nFigure 12: fully agree %d, mainly agree %d, slightly disagree %d (paper: 22/26/2 of 50)\n",
			classes[crowd.FullyAgree], classes[crowd.MainlyAgree], classes[crowd.SlightlyDisagree])
	})
}

func BenchmarkFigure14_T3TimeAndManHours(b *testing.B) {
	_, bm := corpusAndBench(b)
	study := crowd.NewStudy(3)
	b.ResetTimer()
	var t3 crowd.T3Result
	var rep crowd.ManHourReport
	for i := 0; i < b.N; i++ {
		t3 = study.RunT3(460)
		rep = crowd.ManHours(bm, t3)
	}
	b.StopTimer()
	once("figure14", func() {
		fmt.Printf("\nFigure 14: T3 times min/median/mean/max = %.0f/%.0f/%.0f/%.0f s (paper 37/82/140/411)\n",
			t3.Min, t3.Median, t3.Mean, t3.Max)
		fmt.Printf("  man-hours: ratio %.1f%% (paper 5.7%%), speedup %.1fx (paper 17.5x)\n",
			100*rep.Ratio, rep.Speedup)
	})
}

// ---- learning experiments ----

// Training scale for the neural benchmarks.
const (
	maxTrainExamples = 1100
	maxTestExamples  = 120
)

// modelCfgBase is sized so the three-variant training fits go test's
// 10-minute default timeout on a single core (the prescribed run command
// carries no -timeout flag). cmd/seq2vis trains larger models — see
// EXPERIMENTS.md for the accuracy at both scales.
var modelCfgBase = seq2vis.Config{
	Embed: 36, Hidden: 48,
	LR: 2.5e-3, MaxEpochs: 8, Patience: 5, ClipNorm: 2.0, MaxOutLen: 48, Seed: 1,
}

type trainedModels struct {
	basic, attention, copying *seq2vis.Model
	train, val, test          []seq2vis.Example
	trainEntries              []*bench.Entry
}

var (
	modelsOnce sync.Once
	models     trainedModels
)

// learningDBs restricts the neural experiments to the corpus's first
// databases so the training examples cover each schema densely enough: the
// paper trains on 20,598 pairs, ~26× this harness's budget, so density —
// not corpus breadth — is what the scaled-down run must preserve.
const learningDBs = 12

func trainAll(b *testing.B) trainedModels {
	b.Helper()
	corpusAndBench(b)
	modelsOnce.Do(func() {
		dbAllowed := map[string]bool{}
		for i, db := range theCorpus.Databases {
			if i < learningDBs {
				dbAllowed[db.Name] = true
			}
		}
		sub := &bench.Benchmark{Corpus: theCorpus, Rejections: theBench.Rejections}
		for _, e := range theBench.Entries {
			if dbAllowed[e.DB.Name] {
				sub.Entries = append(sub.Entries, e)
			}
		}
		trainE, valE, testE := sub.Split(0.8, 0.045, 1)
		train := seq2vis.ExamplesFromEntries(trainE)
		val := seq2vis.ExamplesFromEntries(valE)
		test := seq2vis.ExamplesFromEntries(testE)
		if len(train) > maxTrainExamples {
			train = train[:maxTrainExamples]
		}
		if len(val) > 80 {
			val = val[:80]
		}
		if len(test) > maxTestExamples {
			test = test[:maxTestExamples]
		}
		var inSeqs, outSeqs [][]string
		for _, set := range [][]seq2vis.Example{train, val, test} {
			for _, ex := range set {
				inSeqs = append(inSeqs, ex.Input)
				outSeqs = append(outSeqs, ex.Output)
			}
		}
		vin, vout := seq2vis.NewVocab(inSeqs), seq2vis.NewVocab(outSeqs)
		// GloVe pretraining on the training text, as in Section 4.2.
		glove := seq2vis.PretrainGloVe(vin, inSeqs, seq2vis.DefaultGloVeConfig(modelCfgBase.Embed))
		mk := func(attn, copyM bool) *seq2vis.Model {
			cfg := modelCfgBase
			cfg.Attention = attn
			cfg.Copying = copyM
			m := seq2vis.NewModel(cfg, vin, vout)
			m.InitInputEmbeddings(glove)
			m.Train(train, val)
			return m
		}
		fmt.Printf("\n[training 3 seq2vis variants on %d examples]\n", len(train))
		// The three variants are independent models; train them in parallel
		// so the suite stays inside go test's 10-minute default timeout.
		var wg sync.WaitGroup
		out := make([]*seq2vis.Model, 3)
		for i, spec := range []struct{ attn, copyM bool }{{false, false}, {true, false}, {true, true}} {
			wg.Add(1)
			go func(i int, attn, copyM bool) {
				defer wg.Done()
				out[i] = mk(attn, copyM)
			}(i, spec.attn, spec.copyM)
		}
		wg.Wait()
		models = trainedModels{
			basic:     out[0],
			attention: out[1],
			copying:   out[2],
			train:     train, val: val, test: test,
			trainEntries: trainE,
		}
	})
	return models
}

func BenchmarkFigure16_SplitDistribution(b *testing.B) {
	_, bm := corpusAndBench(b)
	b.ResetTimer()
	var train, test []*bench.Entry
	for i := 0; i < b.N; i++ {
		train, _, test = bm.Split(0.8, 0.045, 1)
	}
	b.StopTimer()
	once("figure16", func() {
		dist := func(entries []*bench.Entry) map[ast.Hardness]int {
			out := map[ast.Hardness]int{}
			for _, e := range entries {
				out[e.Hardness]++
			}
			return out
		}
		fmt.Printf("\nFigure 16: split sizes train %d / test %d (paper: 80%% / 15.5%%)\n", len(train), len(test))
		fmt.Printf("  train hardness %v\n  test hardness %v\n", dist(train), dist(test))
	})
}

func BenchmarkFigure17_TreeMatching(b *testing.B) {
	tm := trainAll(b)
	evalSet := tm.test
	if len(evalSet) > 60 {
		evalSet = evalSet[:60] // timing kernel on a slice; full table printed once
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq2vis.Evaluate(tm.attention, evalSet)
	}
	b.StopTimer()
	once("figure17", func() {
		fmt.Println("\nFigure 17: vis tree matching accuracy (test set)")
		for _, v := range []struct {
			name string
			m    *seq2vis.Model
		}{{"seq2vis", tm.basic}, {"+attention", tm.attention}, {"+copying", tm.copying}} {
			metrics := seq2vis.Evaluate(v.m, tm.test)
			fmt.Printf("  %-11s tree %.1f%%  result %.1f%% |", v.name, 100*metrics.TreeAcc, 100*metrics.ResultAcc)
			for _, h := range ast.AllHardness {
				r := metrics.ByHardness[h]
				if r.Total > 0 {
					fmt.Printf(" %s=%.0f%%", h, 100*r.Value())
				}
			}
			fmt.Println()
		}
		fmt.Println("  (paper: +attention best at 65.69% overall; the basic variant")
		fmt.Println("   has no attention over the schema tokens and does not converge")
		fmt.Println("   at this reduced scale — see EXPERIMENTS.md)")
		// Figure 17(c-e): the chart x hardness grid for the best variant.
		metrics := seq2vis.Evaluate(tm.attention, tm.test)
		fmt.Println("  +attention grid (chart x hardness, % / n):")
		for _, ct := range ast.ChartTypes {
			row := metrics.ByChartHardness[ct]
			if row == nil {
				continue
			}
			fmt.Printf("    %-18s", ct)
			for _, h := range ast.AllHardness {
				r := row[h]
				if r.Total > 0 {
					fmt.Printf(" %s=%.0f%%/%d", h, 100*r.Value(), r.Total)
				}
			}
			fmt.Println()
		}
	})
}

func BenchmarkTable4_ComponentMatching(b *testing.B) {
	tm := trainAll(b)
	evalSet := tm.test
	if len(evalSet) > 60 {
		evalSet = evalSet[:60]
	}
	b.ResetTimer()
	var metrics seq2vis.Metrics
	for i := 0; i < b.N; i++ {
		metrics = seq2vis.Evaluate(tm.attention, evalSet)
	}
	b.StopTimer()
	once("table4", func() {
		_ = metrics
		fmt.Println("\nTable 4: average vis component matching accuracy")
		for _, v := range []struct {
			name string
			m    *seq2vis.Model
		}{{"seq2vis", tm.basic}, {"+attention", tm.attention}, {"+copying", tm.copying}} {
			mm := seq2vis.Evaluate(v.m, tm.test)
			fmt.Printf("  %-11s", v.name)
			for _, ct := range ast.ChartTypes {
				r := mm.VisTypeAcc[ct]
				if r.Total > 0 {
					fmt.Printf(" %s=%.0f%%", ct, 100*r.Value())
				}
			}
			fmt.Print(" |")
			for _, name := range []string{"axis", "where", "join", "grouping", "binning", "order"} {
				r := mm.Components[name]
				if r.Total > 0 {
					fmt.Printf(" %s=%.0f%%", name, 100*r.Value())
				}
			}
			fmt.Println()
		}
	})
}

func BenchmarkTable5_StateOfTheArt(b *testing.B) {
	tm := trainAll(b)
	baseline := deepeye.NewBaseline()
	parser := nl4dv.New()
	kernel := tm.test
	if len(kernel) > 40 {
		kernel = kernel[:40]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq2vis.Compare(nil, baseline, parser, kernel)
	}
	b.StopTimer()
	once("table5", func() {
		cmp := seq2vis.Compare(tm.attention, baseline, parser, tm.test)
		o := cmp.Overall()
		fmt.Println("\nTable 5: comparison with the state of the art (overall accuracy)")
		fmt.Printf("  deepeye top-1 %.1f%% top-3 %.1f%% top-6 %.1f%% all %.1f%% (paper 9.1/13.1/15.9/22.2)\n",
			100*o["deepeye-top1"], 100*o["deepeye-top3"], 100*o["deepeye-top6"], 100*o["deepeye-all"])
		fmt.Printf("  nl4dv  top-1 %.1f%% (paper 13.7)\n", 100*o["nl4dv"])
		fmt.Printf("  seq2vis       %.1f%% (paper 65.7)\n", 100*o["seq2vis"])
		byH := func(m map[ast.Hardness]seq2vis.Ratio) string {
			s := ""
			for _, h := range ast.AllHardness {
				r := m[h]
				if r.Total > 0 {
					s += fmt.Sprintf(" %s=%.0f%%", h, 100*r.Value())
				}
			}
			return s
		}
		fmt.Printf("  by hardness: seq2vis%v\n               nl4dv  %v\n", byH(cmp.Seq2Vis), byH(cmp.NL4DV))
	})
}

func BenchmarkFigure18_LowRatedPairs(b *testing.B) {
	tm := trainAll(b)
	_, bm := corpusAndBench(b)

	// Identify low-rated entries via the simulated T2 study: entries whose
	// latent quality tilts the expert below neutral.
	study := crowd.NewStudy(9)
	expert, _ := study.RunT1T2(bm, 1.0, 0)
	lowRated := map[int]bool{}
	for _, h := range expert.HITs {
		if h.T2 <= crowd.Disagree {
			lowRated[h.EntryID] = true
		}
	}
	// Partition the training set by whether its source entry is low rated.
	var clean, low []seq2vis.Example
	for _, e := range tm.trainEntries {
		exs := seq2vis.ExamplesFromEntries([]*bench.Entry{e})
		if lowRated[e.ID] {
			low = append(low, exs...)
		} else {
			clean = append(clean, exs...)
		}
	}
	if len(clean) > 520 {
		clean = clean[:520]
	}
	if len(low) > 120 {
		low = low[:120]
	}
	evalSet := tm.test
	if len(evalSet) > 80 {
		evalSet = evalSet[:80]
	}

	trainWith := func(extraFrac float64) float64 {
		set := append([]seq2vis.Example(nil), clean...)
		n := int(extraFrac * float64(len(low)))
		set = append(set, low[:n]...)
		var inSeqs, outSeqs [][]string
		for _, ex := range append(append([]seq2vis.Example(nil), set...), evalSet...) {
			inSeqs = append(inSeqs, ex.Input)
			outSeqs = append(outSeqs, ex.Output)
		}
		cfg := modelCfgBase
		cfg.Attention = true
		cfg.MaxEpochs = 6
		cfg.Patience = 0
		m := seq2vis.NewModel(cfg, seq2vis.NewVocab(inSeqs), seq2vis.NewVocab(outSeqs))
		m.Train(set, nil)
		return seq2vis.Evaluate(m, evalSet).TreeAcc
	}

	b.ResetTimer()
	var base, half, full float64
	for i := 0; i < b.N; i++ {
		if i > 0 {
			// Training dominates; a single full sweep per run suffices.
			continue
		}
		// Independent models: train the three injection levels in parallel.
		var wg sync.WaitGroup
		res := make([]float64, 3)
		for j, frac := range []float64{0, 0.5, 1.0} {
			wg.Add(1)
			go func(j int, frac float64) {
				defer wg.Done()
				res[j] = trainWith(frac)
			}(j, frac)
		}
		wg.Wait()
		base, half, full = res[0], res[1], res[2]
	}
	b.StopTimer()
	once("figure18", func() {
		rel := func(x float64) float64 {
			if base == 0 {
				return 0
			}
			return x / base
		}
		fmt.Printf("\nFigure 18: effect of low-rated pairs (%d low-rated of %d train entries)\n", len(low), len(low)+len(clean))
		fmt.Printf("  accuracy without low-rated %.1f%%; +50%% injected %.1f%% (rel %.2f); +100%% %.1f%% (rel %.2f)\n",
			100*base, 100*half, rel(half), 100*full, rel(full))
		fmt.Println("  (paper: relative accuracy stays near 1.0 — low-rated pairs have slight influence)")
	})
}

func BenchmarkFigure19_CovidCaseStudy(b *testing.B) {
	// The full case study (training included) lives in examples/covid; the
	// benchmark kernel measures prediction over the six dashboard queries
	// with a model trained once.
	tm := trainAll(b)
	queries := tm.test
	if len(queries) > 6 {
		queries = queries[:6]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range queries {
			seq2vis.PredictQuery(tm.attention, ex)
		}
	}
	b.StopTimer()
	once("figure19", func() {
		fmt.Println("\nFigure 19: see `go run ./examples/covid` for the full COVID-19 case study")
	})
}

// ---- ablations (design choices called out in DESIGN.md) ----

func BenchmarkAblation_FilterOff(b *testing.B) {
	c, _ := corpusAndBench(b)
	on := bench.DefaultOptions()
	off := bench.DefaultOptions()
	offSynth := *off.Synth
	offSynth.Filter = nil
	off.Synth = &offSynth
	pairs := c.Pairs
	if len(pairs) > 30 {
		pairs = pairs[:30]
	}
	sub := &spider.Corpus{Databases: c.Databases, Pairs: pairs}
	b.ResetTimer()
	var kept, keptOff, candidates int
	for i := 0; i < b.N; i++ {
		bmOn, err := bench.Build(sub, on)
		if err != nil {
			b.Fatal(err)
		}
		bmOff, err := bench.Build(sub, off)
		if err != nil {
			b.Fatal(err)
		}
		kept, keptOff = len(bmOn.Entries), len(bmOff.Entries)
		candidates = 0
		for _, p := range sub.Pairs {
			candidates += len(on.Synth.Candidates(p.DB, p.Query))
		}
	}
	b.StopTimer()
	once("ablation-filter", func() {
		fmt.Printf("\nAblation (DeepEye filter) over %d source pairs:\n", len(sub.Pairs))
		fmt.Printf("  raw candidates %d -> rule layer keeps %d -> +classifier keeps %d\n",
			candidates, keptOff, kept)
		fmt.Printf("  (rules prune %.0f%% of candidates; the classifier prunes a further %.0f%%)\n",
			100*(1-float64(keptOff)/float64(max(1, candidates))),
			100*(1-float64(kept)/float64(max(1, keptOff))))
	})
}

func BenchmarkAblation_NoSmoothing(b *testing.B) {
	c, _ := corpusAndBench(b)
	pairs := c.Pairs
	if len(pairs) > 30 {
		pairs = pairs[:30]
	}
	sub := &spider.Corpus{Databases: c.Databases, Pairs: pairs}
	smooth := bench.DefaultOptions()
	raw := bench.DefaultOptions()
	rawEditor := nledit.New(1)
	rawEditor.Smooth = false
	raw.Edit = rawEditor
	avgBLEU := func(bm *bench.Benchmark) float64 {
		total, n := 0.0, 0
		for _, row := range bm.Table3() {
			if row.NumVis > 0 {
				total += row.AvgBLEU * float64(row.NumVis)
				n += row.NumVis
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	b.ResetTimer()
	var withS, withoutS float64
	for i := 0; i < b.N; i++ {
		bmS, err := bench.Build(sub, smooth)
		if err != nil {
			b.Fatal(err)
		}
		bmR, err := bench.Build(sub, raw)
		if err != nil {
			b.Fatal(err)
		}
		withS, withoutS = avgBLEU(bmS), avgBLEU(bmR)
	}
	b.StopTimer()
	once("ablation-smoothing", func() {
		fmt.Printf("\nAblation (back-translation smoothing): pairwise BLEU %.3f with smoothing, %.3f without\n",
			withS, withoutS)
		fmt.Println("  (lower BLEU = more diverse NL; smoothing should not reduce diversity)")
	})
}

func BenchmarkAblation_BinCount(b *testing.B) {
	c, _ := corpusAndBench(b)
	db := c.Databases[0]
	// Find a quantitative column to histogram.
	var table, col string
	for _, t := range db.Tables {
		for _, cc := range t.Columns {
			if cc.Type == 2 && cc.Name != "id" {
				table, col = t.Name, cc.Name
			}
		}
	}
	if table == "" {
		b.Skip("no quantitative column in first database")
	}
	results := map[int]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bins := range []int{5, 10, 20} {
			q, err := ast.ParseString(fmt.Sprintf(
				"visualize bar select %s.%s count %s.* from %s group binning %s.%s numeric %d",
				table, col, table, table, table, col, bins))
			if err != nil {
				b.Fatal(err)
			}
			f, _, err := deepeye.Extract(db, q)
			if err != nil {
				b.Fatal(err)
			}
			results[bins] = f.Tuples
		}
	}
	b.StopTimer()
	once("ablation-bins", func() {
		fmt.Printf("\nAblation (#bins for %s.%s): bins=5 -> %d buckets, bins=10 -> %d, bins=20 -> %d (paper default: 10)\n",
			table, col, results[5], results[10], results[20])
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
