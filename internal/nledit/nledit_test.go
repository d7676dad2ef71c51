package nledit

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"nvbench/internal/ast"
	"nvbench/internal/bleu"
	"nvbench/internal/core"
)

func pieVis(t *testing.T) *ast.Query {
	t.Helper()
	q, err := ast.ParseString("visualize pie select faculty.sex count faculty.* from faculty group grouping faculty.sex")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func pieEdit() core.Edit {
	return core.Edit{Ops: []core.EditOp{
		{Kind: core.InsertVisualize, Chart: ast.Pie},
	}}
}

func TestExample5PieInsertion(t *testing.T) {
	// The paper's Example 5: "how many male and female faculties do we
	// have?" plus "VISUALIZE pie" becomes a proportion question.
	e := New(1)
	vars := e.Variants("how many male and female faculties do we have?", pieVis(t), pieEdit())
	if len(vars) < 2 {
		t.Fatalf("too few variants: %d", len(vars))
	}
	for _, v := range vars {
		if v.Manual {
			t.Errorf("insertion-only edit flagged manual: %q", v.Text)
		}
		low := strings.ToLower(v.Text)
		if !strings.Contains(low, "pie") && !strings.Contains(low, "proportion") {
			t.Errorf("variant lacks pie/proportion wording: %q", v.Text)
		}
	}
}

func TestVariantsDeterministic(t *testing.T) {
	e := New(7)
	a := e.Variants("how many flights are there per origin?", pieVis(t), pieEdit())
	b := e.Variants("how many flights are there per origin?", pieVis(t), pieEdit())
	if len(a) != len(b) {
		t.Fatalf("variant counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Errorf("variant %d differs:\n  %q\n  %q", i, a[i].Text, b[i].Text)
		}
	}
}

func TestVariantsDistinct(t *testing.T) {
	e := New(3)
	vars := e.Variants("how many flights are there per origin?", pieVis(t), pieEdit())
	seen := map[string]bool{}
	for _, v := range vars {
		if seen[v.Text] {
			t.Fatalf("duplicate variant: %q", v.Text)
		}
		seen[v.Text] = true
	}
}

func TestVariantsDiverse(t *testing.T) {
	e := New(5)
	vars := e.Variants("how many male and female faculties do we have?", pieVis(t), pieEdit())
	texts := make([]string, len(vars))
	for i, v := range vars {
		texts[i] = v.Text
	}
	if score := bleu.Pairwise(texts); score > 0.85 {
		t.Errorf("variants not diverse enough: pairwise BLEU %.3f\n%v", score, texts)
	}
}

func TestDeletionTriggersManual(t *testing.T) {
	e := New(1)
	edit := core.Edit{Ops: []core.EditOp{
		{Kind: core.DeleteSelect, Attr: ast.Attr{Column: "destination", Table: "flight"}},
		{Kind: core.InsertVisualize, Chart: ast.Pie},
	}}
	vars := e.Variants("list origins and destinations of flights", pieVis(t), edit)
	if len(vars) == 0 {
		t.Fatal("no variants")
	}
	for _, v := range vars {
		if !v.Manual {
			t.Errorf("deletion edit not flagged manual: %q", v.Text)
		}
		if len(v.Text) < 10 {
			t.Errorf("manual re-description too short: %q", v.Text)
		}
	}
}

func TestOrderAndBinPhrases(t *testing.T) {
	q, err := ast.ParseString("visualize line select flight.departure count flight.* from flight group binning flight.departure year order desc count flight.*")
	if err != nil {
		t.Fatal(err)
	}
	o := &ast.Order{Dir: ast.Desc, Attr: ast.Attr{Agg: ast.AggCount, Column: "*", Table: "flight"}}
	g := &ast.Group{Kind: ast.Binning, Attr: ast.Attr{Column: "departure", Table: "flight"}, Bin: ast.BinYear}
	edit := core.Edit{Ops: []core.EditOp{
		{Kind: core.InsertVisualize, Chart: ast.Line},
		{Kind: core.InsertBin, Group: g, Attr: g.Attr},
		{Kind: core.InsertAgg, Attr: ast.Attr{Agg: ast.AggCount, Column: "*", Table: "flight"}},
		{Kind: core.InsertOrder, Order: o, Attr: o.Attr},
	}}
	e := New(2)
	e.Smooth = false
	vars := e.Variants("when do flights depart?", q, edit)
	joined := strings.ToLower(strings.Join(textsOf(vars), " | "))
	if !strings.Contains(joined, "year") {
		t.Errorf("bin phrase missing: %s", joined)
	}
	if !strings.Contains(joined, "order") && !strings.Contains(joined, "sort") &&
		!strings.Contains(joined, "rank") && !strings.Contains(joined, "list by") {
		t.Errorf("order phrase missing: %s", joined)
	}
}

func textsOf(vars []Variant) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = v.Text
	}
	return out
}

func TestNoUnderscoresOrDoublePunct(t *testing.T) {
	e := New(4)
	q, err := ast.ParseString("visualize bar select t.start_time count t.* from t group binning t.start_time month")
	if err != nil {
		t.Fatal(err)
	}
	edit := core.Edit{Ops: []core.EditOp{
		{Kind: core.DeleteSelect, Attr: ast.Attr{Column: "other_col", Table: "t"}},
		{Kind: core.InsertVisualize, Chart: ast.Bar},
	}}
	for _, v := range e.Variants("what are the start_times?", q, edit) {
		if strings.Contains(v.Text, "_") {
			t.Errorf("underscore leaked: %q", v.Text)
		}
		for _, bad := range []string{"..", "?.", ",,", " ,", "  "} {
			if strings.Contains(v.Text, bad) {
				t.Errorf("punctuation artifact %q in %q", bad, v.Text)
			}
		}
	}
}

func TestSmoothChangesSurface(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	in := "show me how many flights are there for each origin in descending order"
	changed := false
	for i := 0; i < 20; i++ {
		if Smooth(in, r) != upperFirst(in) {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("smoothing never paraphrased the input")
	}
}

func TestSmoothPreservesContentWords(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := "how many flights depart from Boston per year"
	out := Smooth(in, r)
	for _, w := range []string{"flights", "Boston", "year"} {
		if !strings.Contains(out, w) {
			t.Errorf("content word %q lost in %q", w, out)
		}
	}
}

// oracleSmooth is Smooth as first written: it lowers the whole sentence
// once per lexicon entry and replaces through oracleReplaceFold.
func oracleSmooth(s string, r *rand.Rand) string {
	out := s
	for _, sub := range pivotLexicon {
		if !strings.Contains(strings.ToLower(out), sub.from) {
			continue
		}
		if r.Float64() < 0.6 {
			out = oracleReplaceFold(out, sub.from, sub.to[r.Intn(len(sub.to))])
		}
	}
	out = tidy(out)
	if out == "" {
		return out
	}
	return strings.ToUpper(out[:1]) + out[1:]
}

// oracleReplaceFold replaces the first case-insensitive occurrence of from.
func oracleReplaceFold(s, from, to string) string {
	idx := strings.Index(strings.ToLower(s), strings.ToLower(from))
	if idx < 0 {
		return s
	}
	return s[:idx] + to + s[idx+len(from):]
}

// randomSentence strings lexicon phrases (both sides), filler words and
// punctuation together in random ASCII case.
func randomSentence(r *rand.Rand) string {
	filler := []string{"flights", "per", "origin", "Boston", "the", "of", "total", "x", "_", ",", ".", "?", " ", "  ", "how", "many"}
	var parts []string
	for n := r.Intn(10); n >= 0; n-- {
		sub := pivotLexicon[r.Intn(len(pivotLexicon))]
		switch r.Intn(3) {
		case 0:
			parts = append(parts, sub.from)
		case 1:
			parts = append(parts, sub.to[r.Intn(len(sub.to))])
		default:
			parts = append(parts, filler[r.Intn(len(filler))])
		}
	}
	b := []byte(strings.Join(parts, []string{" ", "", "  "}[r.Intn(3)]))
	for i, c := range b {
		if 'a' <= c && c <= 'z' && r.Intn(3) == 0 {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}

// Property: on ASCII text Smooth gives the oracle's output and draws the
// same numbers from the RNG.
func TestSmoothMatchesOracle(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		s := randomSentence(gen)
		seed := gen.Int63()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := Smooth(s, r1), oracleSmooth(s, r2)
		if got != want {
			t.Fatalf("Smooth(%q) = %q, oracle %q", s, got, want)
		}
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("Smooth(%q) left the RNG at %d, oracle at %d", s, a, b)
		}
	}
}

// Smooth handles non-ASCII text: offsets stay in the edited string, the
// output is valid UTF-8, and a multi-byte opening rune survives intact.
func TestSmoothNonASCII(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, c := range []struct{ in, prefix string }{
			{"Ⱥ how many", "Ⱥ "},
			{"ȺȺȺ show me the total", "ȺȺȺ "},
			{"Économie: how many", "Économie: "},
			{"économie", "Économie"},
		} {
			out := Smooth(c.in, r)
			if !utf8.ValidString(out) || !strings.HasPrefix(out, c.prefix) {
				t.Errorf("Smooth(%q) = %q, want valid UTF-8 starting %q", c.in, out, c.prefix)
			}
		}
		switch out := Smooth("ȺȺȺ show me the total", r); out {
		case "ȺȺȺ show me the total", "ȺȺȺ display the total", "ȺȺȺ present the total":
		default:
			t.Errorf("Smooth spliced at the wrong offset: %q", out)
		}
	}
}

func TestLexiconIsLowercaseASCII(t *testing.T) {
	for _, sub := range pivotLexicon {
		if sub.from == "" || sub.from[0] < 'a' || sub.from[0] > 'z' {
			t.Errorf("lexicon phrase %q must start with a lowercase letter", sub.from)
		}
		for i := 0; i < len(sub.from); i++ {
			if c := sub.from[i]; c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
				t.Errorf("lexicon phrase %q is not lowercase ASCII", sub.from)
			}
		}
	}
}

func TestIndexFold(t *testing.T) {
	for _, c := range []struct {
		s, phrase string
		want      int
	}{
		{"How Many", "how many", 0},
		{"so HOW many", "how many", 3},
		{"how man", "how many", -1},
		{"ȺȺ show ME", "show me", 5},
		{"\u212Aeep", "keep", -1}, // the Kelvin sign lowercases to k, but is not ASCII
	} {
		if got := indexFold(c.s, c.phrase); got != c.want {
			t.Errorf("indexFold(%q, %q) = %d, want %d", c.s, c.phrase, got, c.want)
		}
	}
}

// The pooled, reseeded RNG draws what a fresh one does, and rngFor seeds it
// with the FNV-1a hash of "<Seed>|<vis>".
func TestPooledRNGMatchesFresh(t *testing.T) {
	for seed := int64(-500); seed < 500; seed++ {
		r := rngPool.Get().(*rand.Rand)
		r.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			if a, b := r.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d, fresh %d", seed, i, a, b)
			}
			if a, b := r.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v, fresh %v", seed, i, a, b)
			}
			if a, b := r.Intn(i+1), fresh.Intn(i+1); a != b {
				t.Fatalf("seed %d draw %d: Intn %d, fresh %d", seed, i, a, b)
			}
		}
		var buf [3]byte
		r.Read(buf[:]) // leave a partial read behind for the next Seed to reset
		rngPool.Put(r)
	}
	vis := pieVis(t)
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", seed, vis.String())
		want := rand.New(rand.NewSource(int64(h.Sum64()))).Int63()
		r := (&Editor{Seed: seed}).rngFor(vis)
		if got := r.Int63(); got != want {
			t.Errorf("rngFor with seed %d: first draw %d, want %d", seed, got, want)
		}
		rngPool.Put(r)
	}
}

func TestTidy(t *testing.T) {
	cases := map[string]string{
		"hello_world":  "hello world",
		"a ,b":         "a,b",
		"done..":       "done.",
		"what?. next":  "what? next",
		"x  y   z":     "x y z",
		" trimmed . ":  "trimmed .",
		"mixed.,combo": "mixed,combo",
	}
	for in, want := range cases {
		if got := tidy(in); got != want {
			t.Errorf("tidy(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCaseHelpers(t *testing.T) {
	if upperFirst("abc") != "Abc" || upperFirst("") != "" {
		t.Error("upperFirst broken")
	}
	if lowerFirst("Show") != "show" {
		t.Error("lowerFirst broken")
	}
	if lowerFirst("TV shows") != "TV shows" {
		t.Error("lowerFirst should keep acronyms")
	}
	if upperFirst("économie") != "Économie" || lowerFirst("Économie") != "économie" || lowerFirst("ÉCONOMIE") != "ÉCONOMIE" {
		t.Error("case helpers must change the whole first rune")
	}
}

func TestVariantCountConfigurable(t *testing.T) {
	e := New(1)
	e.NumVariants = 6
	vars := e.Variants("how many male and female faculties do we have?", pieVis(t), pieEdit())
	if len(vars) < 4 {
		t.Errorf("expected >= 4 variants with NumVariants=6, got %d", len(vars))
	}
}

func TestFilterPhraseAllOps(t *testing.T) {
	attr := ast.Attr{Column: "price", Table: "t"}
	one := func(op ast.FilterOp, vals ...ast.Value) *ast.Filter {
		return &ast.Filter{Op: op, Attr: attr, Values: vals}
	}
	num := ast.NumberValue(5)
	cases := []struct {
		f    *ast.Filter
		want string
	}{
		{one(ast.FilterGT, num), "greater than 5"},
		{one(ast.FilterLT, num), "less than 5"},
		{one(ast.FilterGE, num), "at least 5"},
		{one(ast.FilterLE, num), "at most 5"},
		{one(ast.FilterEQ, ast.StringValue("x")), "equal to x"},
		{one(ast.FilterNE, num), "different from 5"},
		{one(ast.FilterLike, ast.StringValue("a%")), "like a%"},
		{one(ast.FilterBetween, ast.NumberValue(1), ast.NumberValue(9)), "between 1 and 9"},
		{one(ast.FilterIn, ast.StringValue("a"), ast.StringValue("b")), "one of a, b"},
		{one(ast.FilterNotIn, ast.StringValue("a")), "not one of a"},
	}
	for _, c := range cases {
		got := filterPhrase(c.f)
		if !strings.Contains(got, c.want) {
			t.Errorf("filterPhrase(%v) = %q, want substring %q", c.f.Op, got, c.want)
		}
	}
	// Connectives and subqueries.
	and := &ast.Filter{Op: ast.FilterAnd, Left: one(ast.FilterGT, num), Right: one(ast.FilterLT, ast.NumberValue(9))}
	if got := filterPhrase(and); !strings.Contains(got, " and ") {
		t.Errorf("and phrase: %q", got)
	}
	or := &ast.Filter{Op: ast.FilterOr, Left: one(ast.FilterGT, num), Right: one(ast.FilterLT, ast.NumberValue(9))}
	if got := filterPhrase(or); !strings.Contains(got, " or ") {
		t.Errorf("or phrase: %q", got)
	}
	sub, _ := ast.ParseString("select s.id from s")
	inSub := &ast.Filter{Op: ast.FilterIn, Attr: attr, Sub: sub}
	if got := filterPhrase(inSub); !strings.Contains(got, "related set") {
		t.Errorf("subquery phrase: %q", got)
	}
	scalarSub := &ast.Filter{Op: ast.FilterGT, Attr: attr, Sub: sub}
	if got := filterPhrase(scalarSub); !strings.Contains(got, "subquery result") {
		t.Errorf("scalar subquery phrase: %q", got)
	}
	if filterPhrase(nil) != "" {
		t.Error("nil filter should phrase to empty")
	}
}

func TestDescribeCoversSubtrees(t *testing.T) {
	q, err := ast.ParseString("visualize bar select t.city sum t.price from t group grouping t.city filter > t.price 10")
	if err != nil {
		t.Fatal(err)
	}
	q.Left.Superlative = &ast.Superlative{Most: true, K: 3, Attr: ast.Attr{Agg: ast.AggSum, Column: "price", Table: "t"}}
	e := New(1)
	e.Smooth = false
	edit := core.Edit{Ops: []core.EditOp{
		{Kind: core.DeleteSelect, Attr: ast.Attr{Column: "zzz", Table: "t"}},
		{Kind: core.InsertVisualize, Chart: ast.Bar},
	}}
	joined := strings.ToLower(strings.Join(textsOf(e.Variants("irrelevant", q, edit)), " | "))
	for _, want := range []string{"price", "city", "10", "highest", "3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("describe missing %q in %q", want, joined)
		}
	}
}

func TestStripLeadVerb(t *testing.T) {
	cases := map[string]string{
		"Show the deaths per country": "the deaths per country",
		"what are the types":          "the types",
		"Find the names":              "the names",
		"the plain phrase":            "the plain phrase",
	}
	for in, want := range cases {
		if got := stripLeadVerb(in); got != want {
			t.Errorf("stripLeadVerb(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAggWordsAndBinUnits(t *testing.T) {
	for _, a := range []ast.AggFunc{ast.AggSum, ast.AggAvg, ast.AggMax, ast.AggMin, ast.AggCount} {
		if len(aggWords(a)) == 0 || aggWords(a)[0] == "" {
			t.Errorf("aggWords(%v) empty", a)
		}
	}
	for _, u := range []ast.BinUnit{ast.BinMinute, ast.BinHour, ast.BinWeekday, ast.BinMonth, ast.BinQuarter, ast.BinYear, ast.BinNumeric} {
		if binUnitWord(u) == "" || binUnitWord(u) == "bucket" && u != ast.BinNumeric {
			t.Errorf("binUnitWord(%v) = %q", u, binUnitWord(u))
		}
	}
}
