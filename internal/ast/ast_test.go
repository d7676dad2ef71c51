package ast

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func simpleCore() *Core {
	return &Core{
		Select: []Attr{{Column: "name", Table: "student"}, {Agg: AggCount, Column: "*", Table: "student"}},
		Tables: []string{"student"},
	}
}

func TestChartTypeRoundTrip(t *testing.T) {
	for _, ct := range append([]ChartType{ChartNone}, ChartTypes...) {
		got, err := ParseChartType(ct.String())
		if err != nil {
			t.Fatalf("ParseChartType(%q): %v", ct.String(), err)
		}
		if got != ct {
			t.Errorf("round trip %v -> %v", ct, got)
		}
		// Underscore form must parse too.
		got2, err := ParseChartType(strings.ReplaceAll(ct.String(), " ", "_"))
		if err != nil || got2 != ct {
			t.Errorf("underscore round trip %v -> %v (%v)", ct, got2, err)
		}
	}
	if _, err := ParseChartType("donut"); err == nil {
		t.Error("expected error for unknown chart type")
	}
}

func TestAggFuncRoundTrip(t *testing.T) {
	for _, a := range []AggFunc{AggNone, AggMax, AggMin, AggCount, AggSum, AggAvg} {
		got, err := ParseAggFunc(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v -> %v (%v)", a, got, err)
		}
	}
	if got, err := ParseAggFunc("average"); err != nil || got != AggAvg {
		t.Errorf("average alias: got %v, %v", got, err)
	}
}

func TestBinUnitRoundTrip(t *testing.T) {
	for _, u := range []BinUnit{BinNone, BinMinute, BinHour, BinWeekday, BinMonth, BinQuarter, BinYear, BinNumeric} {
		got, err := ParseBinUnit(u.String())
		if err != nil || got != u {
			t.Errorf("round trip %v -> %v (%v)", u, got, err)
		}
	}
}

func TestAttrString(t *testing.T) {
	cases := []struct {
		attr Attr
		want string
	}{
		{Attr{Column: "age", Table: "student"}, "student.age"},
		{Attr{Agg: AggCount, Column: "*", Table: "student"}, "count student.*"},
		{Attr{Agg: AggAvg, Column: "salary", Table: "emp", Distinct: true}, "avg distinct emp.salary"},
	}
	for _, c := range cases {
		if got := c.attr.String(); got != c.want {
			t.Errorf("Attr.String() = %q, want %q", got, c.want)
		}
	}
}

func TestValidateOK(t *testing.T) {
	q := &Query{Visualize: Bar, Left: simpleCore()}
	q.Left.Groups = []Group{{Kind: Grouping, Attr: Attr{Column: "name", Table: "student"}}}
	if err := q.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		q    *Query
	}{
		{"nil", nil},
		{"no core", &Query{}},
		{"empty select", &Query{Left: &Core{Tables: []string{"t"}}}},
		{"no tables", &Query{Left: &Core{Select: []Attr{{Column: "a"}}}}},
		{"right without setop", &Query{Left: simpleCore(), Right: simpleCore()}},
		{"setop missing right", &Query{SetOp: SetUnion, Left: simpleCore()}},
		{"binning no unit", &Query{Left: &Core{
			Select: []Attr{{Column: "a", Table: "t"}},
			Tables: []string{"t"},
			Groups: []Group{{Kind: Binning, Attr: Attr{Column: "a", Table: "t"}}},
		}}},
		{"order and superlative", &Query{Left: &Core{
			Select:      []Attr{{Column: "a", Table: "t"}},
			Tables:      []string{"t"},
			Order:       &Order{Attr: Attr{Column: "a", Table: "t"}},
			Superlative: &Superlative{Most: true, K: 3, Attr: Attr{Column: "a", Table: "t"}},
		}}},
		{"between one value", &Query{Left: &Core{
			Select: []Attr{{Column: "a", Table: "t"}},
			Tables: []string{"t"},
			Filter: &Filter{Op: FilterBetween, Attr: Attr{Column: "a", Table: "t"}, Values: []Value{NumberValue(1)}},
		}}},
		{"connective missing child", &Query{Left: &Core{
			Select: []Attr{{Column: "a", Table: "t"}},
			Tables: []string{"t"},
			Filter: &Filter{Op: FilterAnd, Left: &Filter{Op: FilterEQ, Attr: Attr{Column: "a", Table: "t"}, Values: []Value{NumberValue(1)}}},
		}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q := &Query{
		Visualize: Pie,
		Left: &Core{
			Select: []Attr{{Agg: AggCount, Column: "*", Table: "faculty"}},
			Tables: []string{"faculty"},
			Groups: []Group{{Kind: Grouping, Attr: Attr{Column: "sex", Table: "faculty"}}},
			Filter: &Filter{Op: FilterGT, Attr: Attr{Column: "age", Table: "faculty"}, Values: []Value{NumberValue(30)}},
			Order:  &Order{Dir: Desc, Attr: Attr{Agg: AggCount, Column: "*", Table: "faculty"}},
		},
	}
	c := q.Clone()
	if !q.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Left.Select[0].Column = "id"
	c.Left.Filter.Values[0] = NumberValue(99)
	c.Left.Order.Dir = Asc
	if q.Left.Select[0].Column != "*" || q.Left.Filter.Values[0].Num != 30 || q.Left.Order.Dir != Desc {
		t.Error("mutating clone affected original")
	}
}

func TestEqualDistinguishes(t *testing.T) {
	base := func() *Query {
		return &Query{Visualize: Bar, Left: simpleCore()}
	}
	a := base()
	mutations := []func(*Query){
		func(q *Query) { q.Visualize = Pie },
		func(q *Query) { q.Left.Select[0].Column = "other" },
		func(q *Query) { q.Left.Tables[0] = "other" },
		func(q *Query) { q.Left.Order = &Order{Attr: Attr{Column: "name", Table: "student"}} },
		func(q *Query) {
			q.Left.Groups = []Group{{Kind: Grouping, Attr: Attr{Column: "name", Table: "student"}}}
		},
		func(q *Query) {
			q.Left.Filter = &Filter{Op: FilterEQ, Attr: Attr{Column: "name", Table: "student"}, Values: []Value{StringValue("x")}}
		},
		func(q *Query) {
			q.Left.Superlative = &Superlative{Most: true, K: 1, Attr: Attr{Column: "name", Table: "student"}}
		},
	}
	for i, m := range mutations {
		b := base()
		m(b)
		if a.Equal(b) {
			t.Errorf("mutation %d: trees compare equal", i)
		}
	}
}

// canonicalLines are hand-written canonical query lines: the round-trip
// cases of TestTokensRoundTripHandWritten and FuzzParseString's seeds.
var canonicalLines = []string{
	"select student.name from student",
	"visualize bar select student.name count student.* from student group grouping student.name",
	"visualize pie select faculty.sex count faculty.* from faculty group grouping faculty.sex",
	"visualize line select flight.date count flight.* from flight group binning flight.date year",
	"visualize bar select emp.dept avg emp.salary from emp group grouping emp.dept order desc avg emp.salary",
	"visualize scatter select car.weight car.mpg from car",
	"visualize stacked_bar select emp.dept count emp.* from emp dept group grouping emp.dept grouping emp.rank",
	"visualize bar select emp.dept sum emp.salary from emp group grouping emp.dept filter > emp.age 30",
	"select t.a from t filter and > t.a 1 < t.b 2",
	"select t.a from t filter or like t.name \"Bob%\" = t.city \"NY\"",
	"select t.a from t filter between t.age 18 65",
	"select t.a from t filter in t.id ( select s.id from s )",
	"select t.a from t filter not_in t.id ( select s.id from s filter > s.x 5 )",
	"select t.a from t superlative most 5 t.a",
	"visualize bar select t.a count t.* from t group grouping t.a filter having > count t.* 10",
	"union select t.a from t select s.a from s",
	"intersect select t.a from t filter > t.x 1 select s.a from s",
	"except select t.a from t select s.a from s",
	"visualize grouping_scatter select t.x t.y from t group grouping t.c",
	"visualize bar select t.a count t.* from t group binning t.v numeric 10",
	"select distinct t.name from t",
	"select avg distinct t.salary from t",
}

func TestTokensRoundTripHandWritten(t *testing.T) {
	for _, line := range canonicalLines {
		q, err := ParseString(line)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", line, err)
		}
		got := q.String()
		if got != line {
			t.Errorf("round trip:\n  in  %q\n  out %q", line, got)
		}
		// Parse the regenerated line again: must be structurally equal.
		q2, err := ParseString(got)
		if err != nil {
			t.Fatalf("re-parse %q: %v", got, err)
		}
		if !q.Equal(q2) {
			t.Errorf("re-parsed tree differs for %q", line)
		}
	}
}

func TestTokenizeQuotedStrings(t *testing.T) {
	toks := Tokenize(`filter = t.name "New York City"`)
	want := []string{"filter", "=", "t.name", `"New York City"`}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("Tokenize = %q, want %q", toks, want)
	}
	toks = Tokenize(`= t.s "a \"quoted\" word"`)
	if len(toks) != 3 || toks[2] != `"a \"quoted\" word"` {
		t.Errorf("escaped quote tokenization failed: %q", toks)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"visualize",
		"visualize donut select t.a from t",
		"select from t",
		"select t.a",
		"select t.a from",
		"union select t.a from t",
		"select t.a from t order sideways t.a",
		"select t.a from t superlative most x t.a",
		"select t.a from t filter",
		"select t.a from t filter ?? t.a 1",
		"select t.a from t filter > t.a",
		"select t.a from t filter in t.id ( select s.id from s",
		"select t.a from t group",
		"select t.a from t filter > t.a 1 garbage )",
	}
	for _, line := range bad {
		if _, err := ParseString(line); err == nil {
			t.Errorf("ParseString(%q): expected error", line)
		}
	}
}

// randomQuery builds a random valid query for property testing.
func randomQuery(r *rand.Rand, allowSub bool) *Query {
	q := &Query{}
	if r.Intn(2) == 0 {
		q.Visualize = ChartTypes[r.Intn(len(ChartTypes))]
	}
	if !allowSub && r.Intn(6) == 0 {
		q.SetOp = []SetOp{SetIntersect, SetUnion, SetExcept}[r.Intn(3)]
		q.Left = randomCore(r, false)
		q.Right = randomCore(r, false)
		return q
	}
	q.Left = randomCore(r, allowSub)
	return q
}

var randTables = []string{"alpha", "beta", "gamma"}
var randCols = []string{"id", "name", "price", "qty", "city"}

func randomAttr(r *rand.Rand) Attr {
	a := Attr{
		Table:  randTables[r.Intn(len(randTables))],
		Column: randCols[r.Intn(len(randCols))],
	}
	switch r.Intn(6) {
	case 0:
		a.Agg = AggCount
		if r.Intn(2) == 0 {
			a.Column = "*"
		}
	case 1:
		a.Agg = AggSum
	case 2:
		a.Agg = AggAvg
	}
	if a.Agg == AggNone && r.Intn(8) == 0 {
		a.Distinct = true
	}
	return a
}

func randomCore(r *rand.Rand, allowSub bool) *Core {
	c := &Core{}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		c.Select = append(c.Select, randomAttr(r))
	}
	nt := 1 + r.Intn(2)
	seen := map[string]bool{}
	for i := 0; i < nt; i++ {
		tb := randTables[r.Intn(len(randTables))]
		if !seen[tb] {
			seen[tb] = true
			c.Tables = append(c.Tables, tb)
		}
	}
	if r.Intn(2) == 0 {
		g := Group{Kind: Grouping, Attr: randomAttr(r)}
		g.Attr.Agg, g.Attr.Distinct = AggNone, false
		if r.Intn(3) == 0 {
			g.Kind = Binning
			g.Bin = []BinUnit{BinYear, BinMonth, BinWeekday, BinNumeric}[r.Intn(4)]
			if g.Bin == BinNumeric {
				g.NumBins = 5 + r.Intn(10)
			}
		}
		c.Groups = append(c.Groups, g)
	}
	switch r.Intn(4) {
	case 0:
		c.Order = &Order{Dir: OrderDir(r.Intn(2)), Attr: randomAttr(r)}
	case 1:
		c.Superlative = &Superlative{Most: r.Intn(2) == 0, K: 1 + r.Intn(10), Attr: randomAttr(r)}
	}
	if r.Intn(2) == 0 {
		c.Filter = randomFilter(r, 2, allowSub)
	}
	return c
}

func randomFilter(r *rand.Rand, depth int, allowSub bool) *Filter {
	if depth > 0 && r.Intn(3) == 0 {
		op := FilterAnd
		if r.Intn(2) == 0 {
			op = FilterOr
		}
		return &Filter{Op: op, Left: randomFilter(r, depth-1, allowSub), Right: randomFilter(r, depth-1, allowSub)}
	}
	f := &Filter{Attr: randomAttr(r)}
	f.Attr.Agg, f.Attr.Distinct = AggNone, false
	switch r.Intn(6) {
	case 0:
		f.Op = FilterGT
		f.Values = []Value{NumberValue(float64(r.Intn(100)))}
	case 1:
		f.Op = FilterEQ
		f.Values = []Value{StringValue([]string{"x", "New York", "a b c"}[r.Intn(3)])}
	case 2:
		f.Op = FilterBetween
		f.Values = []Value{NumberValue(float64(r.Intn(10))), NumberValue(float64(10 + r.Intn(100)))}
	case 3:
		f.Op = FilterLike
		f.Values = []Value{StringValue("%ab%")}
	case 4:
		if allowSub {
			f.Op = FilterIn
			f.Sub = randomQuery(r, false)
		} else {
			f.Op = FilterLE
			f.Values = []Value{NumberValue(float64(r.Intn(50)))}
		}
	default:
		f.Op = FilterNE
		f.Values = []Value{NumberValue(float64(r.Intn(100)))}
	}
	return f
}

// TestQuickTokenRoundTrip is the core property test: for any random valid
// tree, ParseTokens(Tokens(t)) reproduces a structurally equal tree.
func TestQuickTokenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randomQuery(rr, true)
		got, err := ParseTokens(q.Tokens())
		if err != nil {
			t.Logf("parse error for %q: %v", q.String(), err)
			return false
		}
		if !q.Equal(got) {
			t.Logf("mismatch:\n  in  %q\n  out %q", q.String(), got.String())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneEqual: Clone always produces an Equal tree, and String is
// deterministic.
func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randomQuery(rr, true)
		c := q.Clone()
		return q.Equal(c) && q.String() == c.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHardnessTotal: every random tree gets exactly one hardness level
// and the classifier is deterministic.
func TestQuickHardnessTotal(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := randomQuery(rr, true)
		h1 := Classify(q)
		h2 := Classify(q.Clone())
		return h1 == h2 && h1 >= Easy && h1 <= ExtraHard
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHardnessLevels(t *testing.T) {
	parse := func(s string) *Query {
		q, err := ParseString(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return q
	}
	cases := []struct {
		line string
		want Hardness
	}{
		// Bare select of <=2 attributes: easy.
		{"select t.a from t", Easy},
		{"select t.a t.b from t", Easy},
		{"visualize scatter select t.a t.b from t", Easy},
		// Two S1 kinds within bounds: medium.
		{"visualize bar select t.a count t.* from t group grouping t.a", Medium},
		{"select t.a from t filter > t.x 1", Medium},
		{"select t.a from t order desc t.a", Medium},
		// Three S1 kinds: hard.
		{"visualize bar select t.a count t.* from t group grouping t.a filter > t.x 1", Hard},
		// Four S1 kinds: extra hard ("more conditions than the hard case").
		{"visualize bar select t.a count t.* from t group grouping t.a filter > t.x 1 order desc count t.*", ExtraHard},
		// Set operator on simple cores: hard (R5).
		{"union select t.a from t select s.a from s", Hard},
		// Set op plus extra machinery: extra hard.
		{"union select t.a from t filter and > t.x 1 < t.y 2 select s.a from s group grouping s.a order asc s.a", ExtraHard},
	}
	for _, c := range cases {
		if got := Classify(parse(c.line)); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.line, got, c.want)
		}
	}
}

func TestAttrAndSubtreeCounts(t *testing.T) {
	q, err := ParseString("visualize bar select t.a count t.* from t group grouping t.a filter and > t.x 1 < t.y 2 order desc count t.*")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.AttrCount(); got != 6 { // 2 select + 1 group + 2 filter + 1 order
		t.Errorf("AttrCount = %d, want 6", got)
	}
	if got := q.FilterCount(); got != 2 {
		t.Errorf("FilterCount = %d, want 2", got)
	}
	if got := q.GroupCount(); got != 1 {
		t.Errorf("GroupCount = %d, want 1", got)
	}
	if q.HasNested() {
		t.Error("HasNested = true, want false")
	}
	if q.HasJoin() {
		t.Error("HasJoin = true, want false")
	}

	q2, err := ParseString("select t.a from t u filter in t.id ( select s.id from s )")
	if err != nil {
		t.Fatal(err)
	}
	if !q2.HasNested() {
		t.Error("HasNested = false, want true")
	}
	if !q2.HasJoin() {
		t.Error("HasJoin = false, want true")
	}
}

func TestExtractComponents(t *testing.T) {
	q, err := ParseString("visualize bar select emp.dept sum emp.salary from emp group grouping emp.dept filter > emp.age 30 order desc sum emp.salary")
	if err != nil {
		t.Fatal(err)
	}
	c := ExtractComponents(q)
	if c.VisType != Bar {
		t.Errorf("VisType = %v", c.VisType)
	}
	if c.Axis == "" || c.Where == "" || c.Grouping == "" || c.Order == "" {
		t.Errorf("missing components: %+v", c)
	}
	if c.Binning != "" || c.Join != "" {
		t.Errorf("unexpected components: %+v", c)
	}
	// Self-match on every component.
	m := c.Match(c)
	for _, name := range ComponentNames {
		if !m[name] {
			t.Errorf("self match failed on %s", name)
		}
	}
	// Changing the vis type only breaks "vis".
	q2 := q.Clone()
	q2.Visualize = Pie
	m2 := c.Match(ExtractComponents(q2))
	if m2["vis"] {
		t.Error("vis should mismatch")
	}
	for _, name := range []string{"axis", "where", "join", "grouping", "binning", "order"} {
		if !m2[name] {
			t.Errorf("%s should still match", name)
		}
	}
}

func TestComponentJoinOrderInsensitive(t *testing.T) {
	qa, _ := ParseString("select t.a from t u")
	qb, _ := ParseString("select t.a from u t")
	ca, cb := ExtractComponents(qa), ExtractComponents(qb)
	if ca.Join != cb.Join {
		t.Errorf("join component should be order-insensitive: %q vs %q", ca.Join, cb.Join)
	}
}

func TestValidIdentifier(t *testing.T) {
	good := []string{"flight", "emp", "grade_report", "t1", "purchase"}
	for _, s := range good {
		if !ValidIdentifier(s) {
			t.Errorf("ValidIdentifier(%q) = false", s)
		}
	}
	bad := []string{"", "order", "select", "from", "group", "filter", "asc",
		"desc", "count", "avg", "between", "in", "and", "a b", "x.y", "grouping"}
	for _, s := range bad {
		if ValidIdentifier(s) {
			t.Errorf("ValidIdentifier(%q) = true", s)
		}
	}
}

func TestSQLRendering(t *testing.T) {
	q, err := ParseString(`visualize bar select t.city count t.* from t group grouping t.city filter and > t.price 10 having >= count t.* 2`)
	if err != nil {
		t.Fatal(err)
	}
	sql := q.SQL()
	for _, want := range []string{"SELECT t.city, COUNT(t.*)", "FROM t", "WHERE t.price > 10", "GROUP BY t.city", "HAVING COUNT(t.*) >= 2"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	if strings.Contains(sql, "visualize") || strings.Contains(sql, "bar") {
		t.Errorf("Visualize leaked into SQL: %q", sql)
	}
}

func TestSQLValueEscaping(t *testing.T) {
	q := &Query{Left: &Core{
		Select: []Attr{{Column: "a", Table: "t"}},
		Tables: []string{"t"},
		Filter: &Filter{Op: FilterEQ, Attr: Attr{Column: "a", Table: "t"}, Values: []Value{StringValue("O'Hare")}},
	}}
	if !strings.Contains(q.SQL(), "'O''Hare'") {
		t.Errorf("quote not escaped: %q", q.SQL())
	}
}

func TestSQLSetOpsAndSuperlative(t *testing.T) {
	q, err := ParseString("union select t.a from t select s.a from s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.SQL(), " UNION ") {
		t.Errorf("union missing: %q", q.SQL())
	}
	q2, err := ParseString("select t.a t.b from t superlative most 5 t.b")
	if err != nil {
		t.Fatal(err)
	}
	sql := q2.SQL()
	if !strings.Contains(sql, "ORDER BY t.b DESC LIMIT 5") {
		t.Errorf("superlative SQL: %q", sql)
	}
	if (&Query{}).SQL() == "" && (*Query)(nil).SQL() != "" {
		t.Error("nil handling broken")
	}
}

func TestPretty(t *testing.T) {
	q, err := ParseString("visualize bar select flight.origin count flight.* from flight group grouping flight.origin filter and > flight.price 100 in flight.aid ( select airline.aid from airline )")
	if err != nil {
		t.Fatal(err)
	}
	out := q.Pretty()
	for _, want := range []string{"Root", "Visualize: bar", "Select", "flight.origin", "Group", "Filter", "and", "Subquery", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("Pretty output missing %q:\n%s", want, out)
		}
	}
	// Set operator shape.
	q2, _ := ParseString("union select t.a from t select s.a from s")
	out2 := q2.Pretty()
	if !strings.Contains(out2, "Q: union") || strings.Count(out2, "Select") != 2 {
		t.Errorf("set-op Pretty wrong:\n%s", out2)
	}
	// Superlative and order render.
	q3, _ := ParseString("select t.a t.b from t superlative most 3 t.b")
	if !strings.Contains(q3.Pretty(), "Superlative") {
		t.Errorf("superlative missing:\n%s", q3.Pretty())
	}
	if (*Query)(nil).Pretty() == "" {
		t.Error("nil query should still render a root")
	}
}
