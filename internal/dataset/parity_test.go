package dataset

import (
	"math"
	"testing"
	"time"

	"nvbench/internal/ast"
)

// parityDB holds the shapes the oracle cases need: NULL and "NULL" cells
// in one column, cells that no unit bins cleanly, a table name with a '.'
// in it, and a table with two columns of one name, so that a join leaves
// two columns named "a.b.c" and a single table two named "a.k".
func parityDB() *Database {
	at := func(h, m int) Cell { return T(time.Date(2020, time.Month(1+h%12), 1+m%28, h, m, 0, 0, time.UTC)) }
	t := &Table{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: Quantitative},
			{Name: "cat", Type: Categorical},
			{Name: "when", Type: Temporal},
			{Name: "num", Type: Quantitative},
		},
		Rows: [][]Cell{
			{N(1), S("x"), at(9, 5), N(2.5)},
			{N(2), Null(Categorical), at(9, 40), N(-3)},
			{N(3), S("NULL"), Null(Temporal), Null(Quantitative)},
			{N(4), S("x"), at(23, 59), N(17)},
			{N(5), Null(Categorical), at(0, 0), N(2.5)},
			{N(6), S("y"), at(14, 30), N(1e16)},
		},
	}
	ab := &Table{
		Name:    "a.b",
		Columns: []Column{{Name: "c", Type: Categorical}, {Name: "k", Type: Quantitative}},
		Rows:    [][]Cell{{S("left1"), N(1)}, {S("left2"), N(2)}, {S("left3"), N(2)}},
	}
	a := &Table{
		Name: "a",
		Columns: []Column{
			{Name: "b.c", Type: Categorical},
			{Name: "k", Type: Quantitative},
			{Name: "k", Type: Quantitative},
		},
		Rows: [][]Cell{
			{S("right1"), N(1), N(10)},
			{S("right2"), N(2), N(20)},
			{S("right3"), N(2), N(30)},
			{S("right4"), N(9), N(40)},
		},
	}
	none := &Table{Name: "none", Columns: []Column{{Name: "id", Type: Quantitative}}}
	return &Database{
		Name:        "parity",
		Tables:      []*Table{t, ab, a, none},
		ForeignKeys: []ForeignKey{{FromTable: "a.b", FromColumn: "k", ToTable: "a", ToColumn: "k"}},
	}
}

// parityCases are the queries whose results the executor must match with
// the oracle's. edit reshapes a parsed tree into one the canonical form
// cannot spell.
var parityCases = []struct {
	name    string
	line    string
	edit    func(c *ast.Core)
	wantErr bool
}{
	// An Attr with no table whose column is "t.c" names column c of t.
	{name: "bare key select", line: "select t.cat t.num from t",
		edit: func(c *ast.Core) { c.Select[0] = ast.Attr{Column: "t.cat"} }},
	{name: "bare key filter", line: "select t.id from t filter > t.num 2",
		edit: func(c *ast.Core) { c.Filter.Attr = ast.Attr{Column: "t.num"} }},
	{name: "bare key group", line: "select t.cat sum t.num from t group grouping t.cat",
		edit: func(c *ast.Core) {
			c.Groups[0].Attr = ast.Attr{Column: "t.cat"}
			c.Select[1] = ast.Attr{Agg: ast.AggSum, Column: "t.num"}
		}},

	// A '.' in a table name: "a.b" + "c" and "a" + "b.c" are one key.
	{name: "dotted table alone", line: "select a.b.c from a",
		edit: func(c *ast.Core) {
			c.Tables = []string{"a.b"}
			c.Select[0] = ast.Attr{Table: "a.b", Column: "c"}
		}},
	{name: "dotted table joined", line: "select a.b.c from a",
		edit: func(c *ast.Core) {
			c.Tables = []string{"a.b", "a"}
			c.Select = append(c.Select, ast.Attr{Table: "a.b", Column: "c"}, ast.Attr{Column: "a.b.c"})
		}},
	{name: "dotted table grouped", line: "select a.b.c count a.* from a group grouping a.b.c filter having > count a.* 0",
		edit: func(c *ast.Core) {
			c.Tables = []string{"a.b", "a"}
			c.Groups[0].Attr = ast.Attr{Table: "a.b", Column: "c"}
		}},
	{name: "dotted table cross joined", line: "select a.b.c none.id from a",
		edit: func(c *ast.Core) { c.Tables = []string{"a", "a.b", "none"} }},

	// Duplicate qualified names: the last column wins.
	{name: "duplicate column", line: "select a.k from a"},
	{name: "duplicate column grouped", line: "select a.k sum a.k max a.k from a group grouping a.k filter > a.k 15"},
	{name: "duplicate column binned", line: "select a.k count a.* from a group binning a.k numeric 2"},

	// NULL keys: a NULL cell and "NULL" text share a group, keyed by the
	// first row's cell.
	{name: "null group key", line: "select t.cat count t.* from t group grouping t.cat"},
	{name: "null group keys", line: "select t.cat t.num t.id from t group grouping t.cat grouping t.num"},

	// Every bin unit, over NULL cells and cells the unit cannot read.
	{name: "bin minute", line: "select t.when count t.* from t group binning t.when minute"},
	{name: "bin hour", line: "select t.when count t.* from t group binning t.when hour"},
	{name: "bin weekday", line: "select t.when count t.* from t group binning t.when weekday"},
	{name: "bin month", line: "select t.when count t.* from t group binning t.when month"},
	{name: "bin quarter", line: "select t.when count t.* from t group binning t.when quarter"},
	{name: "bin year", line: "select t.when count t.* from t group binning t.when year"},
	{name: "bin numeric", line: "select t.num count t.* from t group binning t.num numeric 3"},
	{name: "bin numeric temporal", line: "select t.when avg t.num from t group binning t.when numeric 4"},
	{name: "bin numeric categorical", line: "select t.cat count t.* from t group binning t.cat numeric 2"},
	{name: "bin year of numbers", line: "select t.num count t.* from t group binning t.num year"},
	{name: "bin and group", line: "select t.when t.cat min t.num from t group binning t.when hour grouping t.cat"},

	// GROUP BY over an empty relation yields no groups; with no GROUP BY
	// the one group is empty and bare columns read NULL of their type.
	{name: "group empty", line: "select t.cat count t.* from t filter > t.num 1e20 group grouping t.cat"},
	{name: "bin empty", line: "select t.num count t.* from t filter > t.num 1e20 group binning t.num numeric 5"},
	{name: "group empty table", line: "select none.id count none.* from none group grouping none.id"},
	{name: "aggregate empty", line: "select t.cat max t.when avg t.num from t filter > t.num 1e20"},

	// An unknown column errors only when a row or group reaches it.
	{name: "unknown select, having drops all",
		line: "select t.cat t.nosuch count t.* from t group grouping t.cat filter having > count t.* 100"},
	{name: "unknown aggregate, having drops all",
		line: "select t.cat sum t.nosuch from t group grouping t.cat filter having > count t.* 100"},
	{name: "unknown select, having keeps some",
		line: "select t.cat t.nosuch count t.* from t group grouping t.cat filter having > count t.* 1", wantErr: true},
	{name: "unknown select, no groups", line: "select t.cat t.nosuch from t filter > t.num 1e20 group grouping t.cat"},
	{name: "unknown having column", line: "select t.cat count t.* from t group grouping t.cat filter having > sum t.nosuch 1", wantErr: true},
	{name: "unknown filter, empty relation", line: "select none.id from none filter > none.nosuch 1"},
	{name: "unknown filter, short-circuited", line: "select t.id from t filter and < t.id 0 > t.nosuch 1"},
	{name: "unknown filter, reached", line: "select t.id from t filter or < t.id 0 > t.nosuch 1", wantErr: true},
	{name: "unknown group column", line: "select t.cat count t.* from t filter > t.num 1e20 group grouping t.nosuch", wantErr: true},
}

func TestExecuteMatchesOracle(t *testing.T) {
	db := parityDB()
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := ast.ParseString(tc.line)
			if err != nil {
				t.Fatalf("parse %q: %v", tc.line, err)
			}
			if tc.edit != nil {
				tc.edit(q.Left)
			}
			if _, err := Execute(db, q); (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want one: %v", err, tc.wantErr)
			}
			if err := sameExecution(db, q); err != "" {
				t.Fatal(err)
			}
			if len(q.Left.Groups) > 0 {
				rel, err := buildJoin(db, q.Left.Tables)
				if err != nil {
					t.Fatal(err)
				}
				orel, err := oracleBuildJoin(db, q.Left.Tables)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameGroups(rel, orel, q.Left); err != "" {
					t.Fatal(err)
				}
			}
		})
	}
}

// sameExecution describes how Execute and the oracle differ on q, or
// returns "" when they return the same columns, the same cells in the
// same order (nil rows where the oracle's are nil) and the same error.
func sameExecution(db *Database, q *ast.Query) string {
	got, gerr := Execute(db, q)
	want, werr := oracleExecute(db, q)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return "error " + errText(gerr) + ", oracle " + errText(werr)
		}
		return ""
	case len(got.Columns) != len(want.Columns):
		return "columns differ"
	case (got.Rows == nil) != (want.Rows == nil) || len(got.Rows) != len(want.Rows):
		return "row counts differ"
	case !got.EqualOrdered(want):
		return "rows differ"
	}
	for i, label := range got.Columns {
		if label != want.Columns[i] {
			return "column " + label + ", oracle " + want.Columns[i]
		}
	}
	for i, row := range got.Rows {
		if !sameRow(row, want.Rows[i]) {
			return "row " + got.Key(row) + " differs from the oracle's in a cell's kind or null flag"
		}
	}
	return ""
}

// sameGroups describes how groupRows and the oracle's differ on core c,
// or returns "".
func sameGroups(rel *relation, orel *oracleRelation, c *ast.Core) string {
	got, gerr := groupRows(rel, c)
	want, werr := oracleGroupRows(orel, c)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return "groupRows error " + errText(gerr) + ", oracle " + errText(werr)
		}
		return ""
	}
	if len(got) != len(want) {
		return "group counts differ"
	}
	for i, g := range got {
		w := want[i]
		if !sameRow(g.key, w.key) {
			return "group key " + (&Result{}).Key(g.key) + ", oracle " + (&Result{}).Key(w.key)
		}
		if len(g.rows) != len(w.rows) {
			return "group " + w.text + " row counts differ"
		}
		for j := range g.rows {
			if !sameRow(g.rows[j], w.rows[j]) {
				return "group " + w.text + " rows differ"
			}
		}
	}
	return ""
}

func sameRow(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameCell(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameCell reports whether two cells are identical in every field.
func sameCell(a, b Cell) bool {
	sameNum := a.Num == b.Num || (math.IsNaN(a.Num) && math.IsNaN(b.Num))
	return a.Kind == b.Kind && a.Null == b.Null && a.Str == b.Str && sameNum && a.Time.Equal(b.Time)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// spells must agree with building both keys, for every split of every
// short text over the letters that matter: a name character and '.'.
func TestSpellsIsKeyText(t *testing.T) {
	names := []string{""}
	for n := 0; n < 3; n++ {
		for _, s := range names {
			if len(s) == n {
				names = append(names, s+"a", s+".")
			}
		}
	}
	for _, table := range names {
		for _, column := range names {
			for _, kt := range names {
				for _, kc := range names {
					want := table+"."+column == (ast.Attr{Table: kt, Column: kc}).Key()
					if got := spells(table, column, kt, kc); got != want {
						t.Fatalf("spells(%q, %q, %q, %q) = %v, want %v", table, column, kt, kc, got, want)
					}
				}
			}
		}
	}
}

// FuzzGroupRows decodes a small table with a column of each kind (NULLs
// and repeated values included) and one to three groupings, binned or
// not, and checks that groupRows returns the oracle's groups: the same
// keys in the same order, each over the same rows in the same order.
func FuzzGroupRows(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{12, 0x21, 0x73, 0x15, 0x37, 0x90, 0x4a, 0xff, 0x02, 0x81, 0x66, 0x3c, 0xd7, 0x11, 0x28})
	f.Add([]byte{1, 0x42, 0x10})
	f.Add([]byte{0, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, c := decodeGroupCase(data)
		if err := sameGroups(relationFromTable(tab), oracleRelationFromTable(tab), c); err != "" {
			t.Fatalf("%v\nrows %v\ngroups %v", err, tab.Rows, c.Groups)
		}
	})
}

// decodeGroupCase reads a table and a grouped core from data; bytes past
// its end read as zero.
func decodeGroupCase(data []byte) (*Table, *ast.Core) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tab := &Table{
		Name: "f",
		Columns: []Column{
			{Name: "c", Type: Categorical},
			{Name: "t", Type: Temporal},
			{Name: "q", Type: Quantitative},
		},
	}
	nGroups := 1 + next()%3
	groups := make([]ast.Group, nGroups)
	for i := range groups {
		b := next()
		g := ast.Group{Kind: ast.Grouping, Attr: ast.Attr{Table: "f", Column: tab.Columns[b%3].Name}}
		if b&4 != 0 {
			g.Kind = ast.Binning
			g.Bin = ast.BinUnit(1 + (b>>3)%7)
			g.NumBins = (b >> 6) % 4
		}
		groups[i] = g
	}
	nRows := next() % 24
	for r := 0; r < nRows; r++ {
		b := next()
		row := []Cell{
			S([]string{"a", "b", "NULL", "", "a\x1fb"}[b%5]),
			T(time.Date(2019+b%3, time.Month(1+b%12), 1+b%28, b%24, (b*7)%60, 0, 0, time.UTC)),
			N([]float64{0, 1, -2.5, 7, 1e15, 0.1, -1e-9, 42}[b%8]),
		}
		nulls := next()
		for i := range row {
			if nulls>>i&1 == 1 {
				row[i] = Null(tab.Columns[i].Type)
			}
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, &ast.Core{Select: []ast.Attr{{Agg: ast.AggCount, Column: "*"}}, Tables: []string{"f"}, Groups: groups}
}
