package core

import (
	"math/rand"
	"testing"
	"time"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
)

// flightDB mirrors the paper's Figure 4 running example.
func flightDB() *dataset.Database {
	flight := &dataset.Table{
		Name: "flight",
		Columns: []dataset.Column{
			{Name: "id", Type: dataset.Quantitative},
			{Name: "origin", Type: dataset.Categorical},
			{Name: "destination", Type: dataset.Categorical},
			{Name: "price", Type: dataset.Quantitative},
			{Name: "distance", Type: dataset.Quantitative},
			{Name: "departure", Type: dataset.Temporal},
		},
	}
	r := rand.New(rand.NewSource(5))
	origins := []string{"JFK", "LAX", "ORD", "ATL", "SFO"}
	dests := []string{"SEA", "MIA", "DFW", "BOS"}
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 150; i++ {
		d := 200 + r.Float64()*2000
		flight.Rows = append(flight.Rows, []dataset.Cell{
			dataset.N(float64(i + 1)),
			dataset.S(origins[r.Intn(len(origins))]),
			dataset.S(dests[r.Intn(len(dests))]),
			dataset.N(50 + d*0.12 + r.Float64()*40),
			dataset.N(d),
			dataset.T(base.AddDate(0, 0, r.Intn(1400))),
		})
	}
	return &dataset.Database{Name: "flightdb", Domain: "Flight", Tables: []*dataset.Table{flight}}
}

// testSynth shares one trained filter across tests (training is the slow
// part).
var testSynth = New()

func synthesize(t *testing.T, db *dataset.Database, sql string) ([]*VisObject, []Rejection) {
	t.Helper()
	q, err := sqlparser.TryParse(sql, db)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	kept, rejected, err := testSynth.Synthesize(db, q)
	if err != nil {
		t.Fatalf("synthesize %q: %v", sql, err)
	}
	return kept, rejected
}

func TestRunningExample(t *testing.T) {
	// The Figure 4 input: SELECT fno/origin/destination style query; ours
	// selects origin and counts, mirroring the pie/bar outputs t1/t2.
	kept, _ := synthesize(t, flightDB(), "SELECT origin, destination, price FROM flight")
	if len(kept) == 0 {
		t.Fatal("no vis objects synthesized")
	}
	seenCharts := map[ast.ChartType]bool{}
	for _, v := range kept {
		seenCharts[v.Query.Visualize] = true
		if err := v.Query.Validate(); err != nil {
			t.Errorf("invalid vis %s: %v", v.Query, err)
		}
		if v.Result == nil || len(v.Result.Rows) == 0 {
			t.Errorf("vis without data: %s", v.Query)
		}
	}
	if !seenCharts[ast.Bar] {
		t.Errorf("expected bar charts, got %v", seenCharts)
	}
	if !seenCharts[ast.Pie] {
		t.Errorf("expected pie charts, got %v", seenCharts)
	}
}

func TestSingleCategoricalColumn(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT origin FROM flight")
	if len(kept) == 0 {
		t.Fatal("no vis for single categorical column")
	}
	for _, v := range kept {
		// One-variable rule: grouping + count -> {bar, pie}.
		if v.Query.Visualize != ast.Bar && v.Query.Visualize != ast.Pie {
			t.Errorf("unexpected chart %v for C column", v.Query.Visualize)
		}
		sel := v.Query.Left.Select
		if len(sel) != 2 || sel[1].Agg != ast.AggCount {
			t.Errorf("expected [x, count], got %v", sel)
		}
		if len(v.Query.Left.Groups) != 1 {
			t.Errorf("expected one group, got %v", v.Query.Left.Groups)
		}
	}
}

func TestTemporalColumnGetsLineAndBinning(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT departure FROM flight")
	var hasLine, hasBin bool
	for _, v := range kept {
		if v.Query.Visualize == ast.Line {
			hasLine = true
		}
		for _, g := range v.Query.Left.Groups {
			if g.Kind == ast.Binning {
				hasBin = true
			}
		}
	}
	if !hasLine {
		t.Error("temporal column should yield line charts")
	}
	if !hasBin {
		t.Error("temporal column should yield binned variants")
	}
}

func TestQuantQuantScatter(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT price, distance FROM flight")
	var hasScatter bool
	for _, v := range kept {
		if v.Query.Visualize == ast.Scatter {
			hasScatter = true
			if len(v.Query.Left.Groups) != 0 {
				t.Errorf("scatter should not group: %s", v.Query)
			}
		}
	}
	if !hasScatter {
		t.Error("Q+Q should yield a scatter")
	}
}

func TestThreeVariableCharts(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT origin, price, destination FROM flight")
	seen := map[ast.ChartType]bool{}
	for _, v := range kept {
		seen[v.Query.Visualize] = true
	}
	if !seen[ast.StackedBar] {
		t.Errorf("C+Q+C should yield stacked bar; got %v", seen)
	}
}

func TestGroupingScatter(t *testing.T) {
	s := New()
	s.MaxCandidates = 256
	db := flightDB()
	q, err := sqlparser.TryParse("SELECT price, distance, origin FROM flight", db)
	if err != nil {
		t.Fatal(err)
	}
	kept, _, err := s.Synthesize(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var hasGS bool
	for _, v := range kept {
		if v.Query.Visualize == ast.GroupingScatter {
			hasGS = true
		}
	}
	if !hasGS {
		t.Error("Q+Q+C should yield grouping scatter")
	}
}

func TestExistingGroupPreserved(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT origin, COUNT(*) FROM flight GROUP BY origin")
	if len(kept) == 0 {
		t.Fatal("no vis for grouped query")
	}
	for _, v := range kept {
		found := false
		for _, g := range v.Query.Left.Groups {
			if g.Attr.Column == "origin" {
				found = true
			}
		}
		if !found {
			t.Errorf("existing grouping dropped: %s", v.Query)
		}
	}
}

func TestFilterSubtreeKept(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT origin FROM flight WHERE price > 100")
	if len(kept) == 0 {
		t.Fatal("no vis for filtered query")
	}
	for _, v := range kept {
		if v.Query.Left.Filter == nil {
			t.Errorf("filter subtree dropped: %s", v.Query)
		}
	}
}

func TestOrderDeletionVariant(t *testing.T) {
	q, err := sqlparser.TryParse("SELECT origin, price FROM flight ORDER BY price DESC", flightDB())
	if err != nil {
		t.Fatal(err)
	}
	inters := testSynth.intermediates(q)
	withOrder, withoutOrder := 0, 0
	for _, in := range inters {
		if in.q.Left.Order != nil {
			withOrder++
		} else {
			withoutOrder++
		}
	}
	if withOrder == 0 || withoutOrder == 0 {
		t.Errorf("order deletion variants missing: %d with, %d without", withOrder, withoutOrder)
	}
}

func TestEditScriptsRecorded(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT origin, destination, price FROM flight")
	var sawDeletion, sawVisualize, sawGroup, sawAgg bool
	for _, v := range kept {
		for _, op := range v.Edit.Ops {
			switch op.Kind {
			case DeleteSelect:
				sawDeletion = true
			case InsertVisualize:
				sawVisualize = true
			case InsertGroup, InsertBin:
				sawGroup = true
			case InsertAgg:
				sawAgg = true
			}
		}
	}
	if !sawVisualize || !sawGroup || !sawAgg {
		t.Errorf("insertion ops missing: vis=%v group=%v agg=%v", sawVisualize, sawGroup, sawAgg)
	}
	if !sawDeletion {
		t.Error("deletion ops missing for 3-attribute select")
	}
}

func TestDeduplication(t *testing.T) {
	cands := testSynth.Candidates(flightDB(), sqlparser.Parse("SELECT origin, price FROM flight", nil))
	seen := map[string]bool{}
	for _, c := range cands {
		k := c.Query.String()
		if seen[k] {
			t.Fatalf("duplicate candidate: %s", k)
		}
		seen[k] = true
	}
}

func TestMaxCandidatesBound(t *testing.T) {
	s := New()
	s.MaxCandidates = 5
	cands := s.Candidates(flightDB(), sqlparser.Parse("SELECT origin, destination, price FROM flight", nil))
	if len(cands) > 5 {
		t.Fatalf("bound violated: %d candidates", len(cands))
	}
}

func TestRejectionsHaveReasons(t *testing.T) {
	// A categorical column with 100 distinct values yields pies/bars that
	// the rule layer must reject (too many slices / categories).
	wide := &dataset.Table{
		Name: "city",
		Columns: []dataset.Column{
			{Name: "id", Type: dataset.Quantitative},
			{Name: "name", Type: dataset.Categorical},
		},
	}
	for i := 0; i < 100; i++ {
		wide.Rows = append(wide.Rows, []dataset.Cell{
			dataset.N(float64(i + 1)),
			dataset.S("city-" + dataset.N(float64(i)).String()),
		})
	}
	db := &dataset.Database{Name: "wide", Domain: "Government", Tables: []*dataset.Table{wide}}
	_, rejected := synthesize(t, db, "SELECT name FROM city")
	if len(rejected) == 0 {
		t.Fatal("expected rejections for 100-category charts")
	}
	for _, r := range rejected {
		if r.Reason == "" {
			t.Errorf("rejection without reason: %s", r.Query)
		}
	}
}

func TestSetOpSynthesis(t *testing.T) {
	db := flightDB()
	sql := "SELECT origin FROM flight WHERE price > 150 UNION SELECT destination FROM flight WHERE price < 260"
	q, err := sqlparser.TryParse(sql, db)
	if err != nil {
		t.Fatal(err)
	}
	cands := testSynth.Candidates(db, q)
	if len(cands) == 0 {
		t.Fatal("no candidates for set-op query")
	}
	for _, c := range cands {
		if c.Query.SetOp != ast.SetUnion {
			t.Errorf("set op lost: %s", c.Query)
		}
		if len(c.Query.Left.Select) != len(c.Query.Right.Select) {
			t.Errorf("arity mismatch across cores: %s", c.Query)
		}
	}
}

func TestInvalidInput(t *testing.T) {
	if _, _, err := testSynth.Synthesize(flightDB(), &ast.Query{}); err == nil {
		t.Fatal("expected error for invalid tree")
	}
}

func TestHardnessAssigned(t *testing.T) {
	kept, _ := synthesize(t, flightDB(), "SELECT origin FROM flight WHERE price > 100")
	for _, v := range kept {
		if v.Hardness < ast.Easy || v.Hardness > ast.ExtraHard {
			t.Errorf("bad hardness %v", v.Hardness)
		}
	}
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	if len(got) != 6 {
		t.Fatalf("C(4,2) = %d", len(got))
	}
	got = combinations(3, 3)
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("C(3,3) = %v", got)
	}
	got = combinations(5, 1)
	if len(got) != 5 {
		t.Fatalf("C(5,1) = %d", len(got))
	}
}

func TestEditPartition(t *testing.T) {
	e := Edit{Ops: []EditOp{
		{Kind: DeleteSelect},
		{Kind: InsertVisualize, Chart: ast.Bar},
		{Kind: DeleteOrder},
		{Kind: InsertGroup},
	}}
	dels := 0
	for _, op := range e.Ops {
		if op.IsDeletion() {
			dels++
		}
	}
	if dels != 2 {
		t.Fatalf("partition: %d deletions of %d ops, want 2", dels, len(e.Ops))
	}
	if !e.HasDeletions() {
		t.Error("HasDeletions should be true")
	}
	if (Edit{}).HasDeletions() {
		t.Error("empty edit should have no deletions")
	}
}

// TestSynthesizeOverCorpus runs the full pipeline over a generated corpus:
// every kept vis must validate, execute, and carry a complete edit script.
func TestSynthesizeOverCorpus(t *testing.T) {
	corpus, err := spider.Generate(spider.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	totalVis := 0
	charts := map[ast.ChartType]int{}
	for _, p := range corpus.Pairs[:60] {
		kept, _, err := testSynth.Synthesize(p.DB, p.Query)
		if err != nil {
			t.Fatalf("pair %d (%s): %v", p.ID, p.SQL, err)
		}
		for _, v := range kept {
			totalVis++
			charts[v.Query.Visualize]++
			if err := v.Query.Validate(); err != nil {
				t.Fatalf("invalid vis from pair %d: %v", p.ID, err)
			}
			hasVisualize := false
			for _, op := range v.Edit.Ops {
				if op.Kind == InsertVisualize {
					hasVisualize = true
				}
			}
			if !hasVisualize {
				t.Fatalf("edit script missing visualize insertion: %s", v.Query)
			}
		}
	}
	if totalVis == 0 {
		t.Fatal("corpus synthesis produced nothing")
	}
	// Bars should dominate, as in Table 3 (~76% bar).
	if charts[ast.Bar] == 0 || charts[ast.Bar] < charts[ast.Pie] {
		t.Errorf("chart mix unexpected: %v", charts)
	}
}

// TestCandidatesRespectTable1 checks the chart-rule invariants of Table 1 on
// every candidate generated over a corpus: scatters take two quantitative
// axes, lines never take a categorical x, pies and bars carry a quantitative
// measure, and three-attribute charts carry a grouping for the color role.
func TestCandidatesRespectTable1(t *testing.T) {
	corpus, err := spider.Generate(spider.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	attrType := func(db *dataset.Database, a ast.Attr) dataset.ColType {
		if a.Agg != ast.AggNone {
			return dataset.Quantitative
		}
		return db.ColumnType(a.Table, a.Column)
	}
	checked := 0
	for _, p := range corpus.Pairs[:40] {
		for _, c := range testSynth.Candidates(p.DB, p.Query) {
			checked++
			core := c.Query.Left
			sel := core.Select
			if len(sel) < 2 {
				t.Fatalf("candidate with %d attrs: %s", len(sel), c.Query)
			}
			xT := attrType(p.DB, sel[0])
			yT := attrType(p.DB, sel[1])
			// The x axis may be re-typed by binning (labels are nominal).
			binned := false
			for _, g := range core.Groups {
				if g.Kind == ast.Binning && g.Attr.Key() == sel[0].Key() {
					binned = true
				}
			}
			switch c.Query.Visualize {
			case ast.Scatter, ast.GroupingScatter:
				if xT != dataset.Quantitative || yT != dataset.Quantitative {
					t.Errorf("scatter with non-Q axes: %s", c.Query)
				}
			case ast.Line, ast.GroupingLine:
				if xT == dataset.Categorical && !binned {
					t.Errorf("line with categorical x: %s", c.Query)
				}
				if yT != dataset.Quantitative {
					t.Errorf("line with non-Q y: %s", c.Query)
				}
			case ast.Bar, ast.Pie, ast.StackedBar:
				if yT != dataset.Quantitative {
					t.Errorf("%v with non-Q measure: %s", c.Query.Visualize, c.Query)
				}
			}
			if len(sel) == 3 && len(core.Groups) == 0 {
				t.Errorf("three-attribute chart without grouping: %s", c.Query)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidates checked")
	}
}

// TestCandidatesAlwaysVisualize: every candidate is a vis tree with at
// least one group unless it is a plain scatter.
func TestCandidatesAlwaysVisualize(t *testing.T) {
	corpus, err := spider.Generate(spider.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus.Pairs[:30] {
		for _, c := range testSynth.Candidates(p.DB, p.Query) {
			if !c.Query.IsVis() {
				t.Fatalf("candidate without Visualize: %s", c.Query)
			}
			if c.Query.Visualize != ast.Scatter && c.Query.GroupCount() == 0 {
				t.Errorf("grouped chart type without groups: %s", c.Query)
			}
		}
	}
}
