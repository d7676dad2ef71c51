package deepeye

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
)

func chartDB() *dataset.Database {
	sales := &dataset.Table{
		Name: "sales",
		Columns: []dataset.Column{
			{Name: "id", Type: dataset.Quantitative},
			{Name: "region", Type: dataset.Categorical},
			{Name: "amount", Type: dataset.Quantitative},
			{Name: "cost", Type: dataset.Quantitative},
			{Name: "sold_at", Type: dataset.Temporal},
		},
	}
	r := rand.New(rand.NewSource(3))
	regions := []string{"north", "south", "east", "west"}
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 120; i++ {
		amt := 50 + r.Float64()*100
		sales.Rows = append(sales.Rows, []dataset.Cell{
			dataset.N(float64(i + 1)),
			dataset.S(regions[r.Intn(len(regions))]),
			dataset.N(amt),
			dataset.N(amt*0.6 + r.Float64()*10), // correlated with amount
			dataset.T(base.AddDate(0, 0, r.Intn(700))),
		})
	}
	return &dataset.Database{Name: "salesdb", Domain: "Shop", Tables: []*dataset.Table{sales}}
}

func parse(t *testing.T, line string) *ast.Query {
	t.Helper()
	q, err := ast.ParseString(line)
	if err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	return q
}

func TestExtractFeatures(t *testing.T) {
	db := chartDB()
	q := parse(t, "visualize bar select sales.region count sales.* from sales group grouping sales.region")
	f, res, err := Extract(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if f.Tuples != 4 || f.DistinctX != 4 {
		t.Errorf("features = %+v", f)
	}
	if f.XType != dataset.Categorical || f.YType != dataset.Quantitative {
		t.Errorf("types = %v/%v", f.XType, f.YType)
	}
	if len(res.Rows) != 4 {
		t.Errorf("result rows = %d", len(res.Rows))
	}
}

func TestRuleCheckFailures(t *testing.T) {
	cases := []struct {
		name string
		f    Features
	}{
		{"empty", Features{VisType: ast.Bar}},
		{"single value bar", Features{VisType: ast.Bar, Tuples: 1, DistinctX: 1, YType: dataset.Quantitative}},
		{"pie too many slices", Features{VisType: ast.Pie, Tuples: 40, DistinctX: 40, YType: dataset.Quantitative}},
		{"bar too many categories", Features{VisType: ast.Bar, Tuples: 200, DistinctX: 200, YType: dataset.Quantitative}},
		{"line two qualitative", Features{VisType: ast.Line, Tuples: 10, DistinctX: 10, XType: dataset.Categorical, YType: dataset.Categorical}},
		{"scatter non quantitative", Features{VisType: ast.Scatter, Tuples: 50, DistinctX: 50, XType: dataset.Categorical, YType: dataset.Quantitative}},
		{"no vis type", Features{VisType: ast.ChartNone, Tuples: 10}},
	}
	for _, c := range cases {
		if ok, reason := RuleCheck(c.f); ok {
			t.Errorf("%s: expected rejection", c.name)
		} else if reason == "" {
			t.Errorf("%s: missing reason", c.name)
		}
	}
}

func TestRuleCheckAccepts(t *testing.T) {
	cases := []Features{
		{VisType: ast.Bar, Tuples: 5, DistinctX: 5, XType: dataset.Categorical, YType: dataset.Quantitative},
		{VisType: ast.Pie, Tuples: 4, DistinctX: 4, XType: dataset.Categorical, YType: dataset.Quantitative},
		{VisType: ast.Line, Tuples: 30, DistinctX: 30, XType: dataset.Temporal, YType: dataset.Quantitative},
		{VisType: ast.Scatter, Tuples: 60, DistinctX: 55, XType: dataset.Quantitative, YType: dataset.Quantitative},
	}
	for i, f := range cases {
		if ok, reason := RuleCheck(f); !ok {
			t.Errorf("case %d rejected: %s", i, reason)
		}
	}
}

func TestClassifierLearnsRules(t *testing.T) {
	train := SyntheticTrainingSet(4000, 0, 1)
	test := SyntheticTrainingSet(1500, 0, 2)
	clf := Train(train, 25, 0.05, 3)
	acc := clf.Accuracy(test)
	if acc < 0.80 {
		t.Errorf("classifier accuracy = %.3f, want >= 0.80", acc)
	}
}

func TestClassifierRobustToLabelNoise(t *testing.T) {
	train := SyntheticTrainingSet(4000, 0.1, 4)
	test := SyntheticTrainingSet(1500, 0, 5)
	clf := Train(train, 25, 0.05, 6)
	if acc := clf.Accuracy(test); acc < 0.72 {
		t.Errorf("noisy-label accuracy = %.3f", acc)
	}
}

func TestTrainEmpty(t *testing.T) {
	clf := Train(nil, 5, 0.1, 1)
	if clf == nil || len(clf.W1) != hiddenUnits || len(clf.W1[0]) != featureDim {
		t.Fatal("empty training should still return an initialized model")
	}
	if clf.Accuracy(nil) != 0 {
		t.Error("accuracy of empty set should be 0")
	}
}

func TestFilterGoodAndBad(t *testing.T) {
	db := chartDB()
	fl := NewFilter()
	good := parse(t, "visualize bar select sales.region count sales.* from sales group grouping sales.region")
	ok, reason, res, err := fl.Good(db, good)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("4-bar chart rejected: %s", reason)
	}
	if res == nil || len(res.Rows) == 0 {
		t.Error("result not returned")
	}
	// A bar chart over the raw id column: one bar per row, rejected.
	bad := parse(t, "visualize bar select sales.id count sales.* from sales group grouping sales.id")
	ok, reason, _, err = fl.Good(db, bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("120-bar chart accepted")
	}
	if reason == "" {
		t.Error("rejection without reason")
	}
}

func TestFilterSingleValue(t *testing.T) {
	db := chartDB()
	fl := NewFilter()
	q := parse(t, "visualize bar select sales.region count sales.* from sales")
	ok, reason, _, err := fl.Good(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("single-value chart accepted")
	}
	if reason == "" {
		t.Error("missing rejection reason")
	}
}

func TestBaselineTopK(t *testing.T) {
	db := chartDB()
	b := NewBaseline()
	got := b.TopK(db, "how many sales are there for each region", 6)
	if len(got) == 0 {
		t.Fatal("no candidates")
	}
	// The top candidates must be valid vis trees over the sales table.
	for _, q := range got {
		if err := q.Validate(); err != nil {
			t.Errorf("invalid candidate %s: %v", q, err)
		}
		if q.Visualize == ast.ChartNone {
			t.Errorf("candidate without chart type: %s", q)
		}
	}
	// Among the top candidates there should be a grouped count on region.
	found := false
	for _, q := range got {
		if len(q.Left.Groups) == 1 && q.Left.Groups[0].Attr.Column == "region" &&
			q.Left.Select[1].Agg == ast.AggCount {
			found = true
		}
	}
	if !found {
		t.Errorf("expected region count candidate in top-k, got %v", got)
	}
}

func TestBaselineChartHint(t *testing.T) {
	db := chartDB()
	b := NewBaseline()
	got := b.TopK(db, "draw a pie chart of sales per region", 3)
	if len(got) == 0 {
		t.Fatal("no candidates")
	}
	if got[0].Visualize != ast.Pie {
		t.Errorf("pie hint ignored: top = %s", got[0])
	}
	got = b.TopK(db, "show the relationship between amount and cost", 3)
	if len(got) == 0 || got[0].Visualize != ast.Scatter {
		t.Errorf("scatter hint ignored: %v", got)
	}
}

func TestBaselineDeduplicates(t *testing.T) {
	db := chartDB()
	b := NewBaseline()
	got := b.TopK(db, "sales by region", 20)
	seen := map[string]bool{}
	for _, q := range got {
		k := q.String()
		if seen[k] {
			t.Fatalf("duplicate candidate %s", k)
		}
		seen[k] = true
	}
}

// Property: classifier scores are probabilities and Predict is consistent
// with Score.
func TestQuickClassifierBounds(t *testing.T) {
	clf := Train(SyntheticTrainingSet(1000, 0.05, 8), 10, 0.05, 9)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		set := SyntheticTrainingSet(1, 0, r.Int63())
		s := clf.Score(set[0].F)
		return s >= 0 && s <= 1 && clf.Predict(set[0].F) == (s >= 0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the rule layer always rejects empty results and oversized pies.
func TestQuickRuleInvariants(t *testing.T) {
	f := func(tuples, distinct uint8) bool {
		fe := Features{
			VisType:   ast.Pie,
			Tuples:    int(tuples),
			DistinctX: int(distinct),
			XType:     dataset.Categorical,
			YType:     dataset.Quantitative,
		}
		ok, _ := RuleCheck(fe)
		if fe.Tuples == 0 && ok {
			return false
		}
		if fe.DistinctX > MaxPieSlices && ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
