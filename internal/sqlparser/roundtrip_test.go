package sqlparser

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvbench/internal/ast"
)

// roundTripSQL are SQL-representable queries over schemaDB; they are
// TestSQLRenderRoundTrip's inputs and FuzzTryParse's seed corpus.
var roundTripSQL = []string{
	"SELECT origin FROM flight",
	"SELECT DISTINCT origin FROM flight",
	"SELECT origin, COUNT(*) FROM flight GROUP BY origin",
	"SELECT origin, AVG(price) FROM flight WHERE price > 100 GROUP BY origin HAVING COUNT(*) > 2",
	"SELECT origin FROM flight WHERE origin LIKE 'New%' AND price BETWEEN 10 AND 500",
	"SELECT origin FROM flight WHERE origin NOT LIKE 'X%'",
	"SELECT origin FROM flight WHERE origin IN ('JFK', 'LAX')",
	"SELECT origin FROM flight WHERE aid IN (SELECT aid FROM airline)",
	"SELECT origin FROM flight WHERE price > (SELECT AVG(price) FROM flight)",
	"SELECT origin, price FROM flight ORDER BY price DESC",
	"SELECT origin, price FROM flight ORDER BY price DESC LIMIT 3",
	"SELECT origin FROM flight UNION SELECT destination FROM flight",
	"SELECT origin FROM flight INTERSECT SELECT destination FROM flight",
	"SELECT origin FROM flight WHERE price > 1 OR origin = 'JFK'",
	"SELECT origin FROM flight WHERE price = 2.5 AND destination != 'BOS'",
	"SELECT origin FROM flight WHERE price > -0.12 AND fno < -3",
}

// TestSQLRenderRoundTrip: rendering a parsed query back to SQL and
// re-parsing it reproduces the same tree (for trees without binning, whose
// GROUP BY has no SQL counterpart).
func TestSQLRenderRoundTrip(t *testing.T) {
	db := schemaDB()
	for _, sql := range roundTripSQL {
		q1, err := TryParse(sql, db)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		rendered := q1.SQL()
		q2, err := TryParse(rendered, db)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", rendered, sql, err)
		}
		if !q1.Equal(q2) {
			t.Errorf("round trip mismatch:\n  sql      %q\n  rendered %q\n  t1 %s\n  t2 %s",
				sql, rendered, q1, q2)
		}
	}
}

// TestQuickSQLRoundTrip builds random valid SQL-representable trees and
// checks Parse(SQL(t)) == t.
func TestQuickSQLRoundTrip(t *testing.T) {
	db := schemaDB()
	cols := []string{"origin", "destination", "price", "fno"}
	aggs := []ast.AggFunc{ast.AggNone, ast.AggCount, ast.AggSum, ast.AggAvg, ast.AggMax, ast.AggMin}
	randAttr := func(r *rand.Rand, allowAgg bool) ast.Attr {
		a := ast.Attr{Table: "flight", Column: cols[r.Intn(len(cols))]}
		if allowAgg && r.Intn(2) == 0 {
			a.Agg = aggs[1+r.Intn(len(aggs)-1)]
			if a.Agg == ast.AggCount && r.Intn(2) == 0 {
				a.Column = "*"
			}
		}
		return a
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := &ast.Core{Tables: []string{"flight"}}
		hasAgg := false
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			a := randAttr(r, true)
			if a.Agg != ast.AggNone {
				hasAgg = true
			}
			c.Select = append(c.Select, a)
		}
		if hasAgg || r.Intn(2) == 0 {
			g := randAttr(r, false)
			c.Groups = []ast.Group{{Kind: ast.Grouping, Attr: g}}
		}
		switch r.Intn(4) {
		case 0:
			c.Filter = &ast.Filter{
				Op:     ast.FilterGT,
				Attr:   ast.Attr{Table: "flight", Column: "price"},
				Values: []ast.Value{ast.NumberValue(float64(r.Intn(500)))},
			}
		case 1:
			c.Filter = &ast.Filter{
				Op:     ast.FilterEQ,
				Attr:   ast.Attr{Table: "flight", Column: "origin"},
				Values: []ast.Value{ast.StringValue("JFK")},
			}
		}
		switch r.Intn(3) {
		case 0:
			c.Order = &ast.Order{Dir: ast.OrderDir(r.Intn(2)), Attr: c.Select[0]}
		case 1:
			c.Superlative = &ast.Superlative{Most: r.Intn(2) == 0, K: 1 + r.Intn(9), Attr: c.Select[0]}
		}
		q := &ast.Query{Left: c}
		if q.Validate() != nil {
			return true // skip invalid random draws
		}
		q2, err := TryParse(q.SQL(), db)
		if err != nil {
			t.Logf("render %q failed to parse: %v", q.SQL(), err)
			return false
		}
		if !q.Equal(q2) {
			t.Logf("mismatch:\n  %s\n  %s\n  sql %q", q, q2, q.SQL())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
