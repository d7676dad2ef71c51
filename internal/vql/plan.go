package vql

import (
	"fmt"
	"strings"
)

// indexPreference orders indexable columns by expected selectivity:
// when several equality conjuncts could use an index, the planner picks
// the first available one in this order.
var indexPreference = []string{"db", "chart", "hardness"}

// planItem is one resolved output column.
type planItem struct {
	name    string // canonical output name
	agg     string // "" for a plain column
	aggStar bool   // count(*)
	col     int    // source-column index (-1 for count(*))
	typ     colType
}

// orderSpec is one resolved ORDER BY key.
type orderSpec struct {
	item int // output-column index
	desc bool
}

// Plan is a validated, executable query plan.
type Plan struct {
	table *table
	items []planItem
	// IndexField/IndexKey describe the pushed-down equality predicate;
	// empty IndexField means a full scan.
	IndexField string
	IndexKey   string
	// Filter is the residual predicate applied to scanned rows (the
	// normalized WHERE minus the pushed-down conjunct); nil = none.
	Filter  Expr
	groupBy []int // output-column indexes of the group keys
	grouped bool  // true when aggregates or GROUP BY are present
	orderBy []orderSpec
	limit   int // -1 = none
}

// Plan validates a parsed query against the engine's schema and
// chooses the access path. It returns a *Error describing the first
// problem found.
func (e *Engine) Plan(q *Query) (*Plan, error) {
	t, ok := e.table(q.From)
	if !ok {
		return nil, errf(0, "unknown table %q (have entries, stats)", q.From)
	}
	p := &Plan{table: t, limit: q.Limit}

	// Resolve the select list, expanding `*`.
	hasAgg, hasPlain := false, false
	for _, it := range q.Select {
		if it.Star {
			for i, c := range t.cols {
				p.items = append(p.items, planItem{name: c.name, col: i, typ: c.typ})
			}
			hasPlain = true
			continue
		}
		if it.Agg == "" {
			ci, ok := t.colIdx[it.Column]
			if !ok {
				return nil, errf(0, "unknown column %q in table %s", it.Column, t.name)
			}
			p.items = append(p.items, planItem{name: it.Name(), col: ci, typ: t.cols[ci].typ})
			hasPlain = true
			continue
		}
		hasAgg = true
		pi := planItem{name: it.Name(), agg: it.Agg, aggStar: it.AggStar, col: -1, typ: colNum}
		if !it.AggStar {
			ci, ok := t.colIdx[it.Column]
			if !ok {
				return nil, errf(0, "unknown column %q in table %s", it.Column, t.name)
			}
			ct := t.cols[ci].typ
			switch it.Agg {
			case "sum", "avg":
				if ct != colNum {
					return nil, errf(0, "%s requires a numeric column; %s is %s", it.Agg, it.Column, ct)
				}
			case "min", "max":
				pi.typ = ct
			}
			pi.col = ci
		}
		p.items = append(p.items, pi)
	}

	// Resolve grouping. Every non-aggregate output column must be
	// grouped, and every group key must name a non-aggregate output
	// column (SELECT-list grouping, as in the paper's slicing queries).
	if len(q.GroupBy) > 0 {
		if !hasAgg {
			return nil, errf(0, "GROUP BY requires at least one aggregate in SELECT")
		}
		for _, k := range q.GroupBy {
			idx, err := p.resolveKey(k.Ordinal, k.Column, "GROUP BY")
			if err != nil {
				return nil, err
			}
			if p.items[idx].agg != "" {
				return nil, errf(0, "GROUP BY key %s is an aggregate", p.items[idx].name)
			}
			p.groupBy = append(p.groupBy, idx)
		}
	}
	if hasAgg {
		p.grouped = true
		if hasPlain {
			grouped := map[int]bool{}
			for _, gi := range p.groupBy {
				grouped[gi] = true
			}
			for i, it := range p.items {
				if it.agg == "" && !grouped[i] {
					return nil, errf(0, "column %s must appear in GROUP BY or inside an aggregate", it.name)
				}
			}
		}
	}

	// Normalize the predicate (eliminate NOT, split top-level AND) and
	// type-check every comparison.
	var conjs []Expr
	if q.Where != nil {
		norm := normalize(q.Where, false)
		conjs = conjuncts(norm)
		for _, c := range conjs {
			if err := p.checkExpr(c); err != nil {
				return nil, err
			}
		}
	}

	// Push one string-equality conjunct down to an index, preferring
	// the most selective field.
	if len(e.indexes) > 0 && t.name == "entries" {
		pick := -1
		for _, field := range indexPreference {
			if e.indexes[field] == nil {
				continue
			}
			for i, c := range conjs {
				cmp, ok := c.(*Cmp)
				if ok && cmp.Col == field && cmp.Op == "=" && cmp.Lit.Kind == KindString {
					pick = i
					break
				}
			}
			if pick >= 0 {
				cmp := conjs[pick].(*Cmp)
				p.IndexField = cmp.Col
				p.IndexKey = cmp.Lit.Str
				break
			}
		}
		if pick >= 0 {
			conjs = append(conjs[:pick], conjs[pick+1:]...)
		}
	}
	p.Filter = conjoin(conjs)

	// Resolve ORDER BY keys to output columns.
	for _, k := range q.OrderBy {
		idx, err := p.resolveKey(k.Ordinal, k.Column, "ORDER BY")
		if err != nil {
			return nil, err
		}
		p.orderBy = append(p.orderBy, orderSpec{item: idx, desc: k.Desc})
	}
	return p, nil
}

// resolveKey maps a 1-based ordinal or an output-column name to an
// index into the select list.
func (p *Plan) resolveKey(ordinal int, col, clause string) (int, *Error) {
	if ordinal > 0 {
		if ordinal > len(p.items) {
			return 0, errf(0, "%s ordinal %d out of range (select list has %d columns)", clause, ordinal, len(p.items))
		}
		return ordinal - 1, nil
	}
	for i, it := range p.items {
		if it.name == col {
			return i, nil
		}
	}
	return 0, errf(0, "%s key %q does not name an output column", clause, col)
}

// checkExpr type-checks every comparison in a normalized expression.
func (p *Plan) checkExpr(e Expr) *Error {
	switch x := e.(type) {
	case *AndExpr:
		if err := p.checkExpr(x.Left); err != nil {
			return err
		}
		return p.checkExpr(x.Right)
	case *OrExpr:
		if err := p.checkExpr(x.Left); err != nil {
			return err
		}
		return p.checkExpr(x.Right)
	case *NotExpr:
		return p.checkExpr(x.X)
	case *Cmp:
		ci, ok := p.table.colIdx[x.Col]
		if !ok {
			return errf(0, "unknown column %q in table %s", x.Col, p.table.name)
		}
		ct := p.table.cols[ci].typ
		if x.Lit.Kind == KindNull {
			return errf(0, "cannot compare %s to null (no column is nullable)", x.Col)
		}
		want := map[colType]ValueKind{colNum: KindNumber, colStr: KindString, colBool: KindBool}[ct]
		if x.Lit.Kind != want {
			return errf(0, "cannot compare %s column %s to %s", ct, x.Col, x.Lit.String())
		}
		if ct == colBool && x.Op != "=" && x.Op != "!=" {
			return errf(0, "bool column %s only supports = and !=", x.Col)
		}
		return nil
	}
	return errf(0, "internal: unknown expression %T", e)
}

// normalize eliminates NOT by pushing negation down to comparisons
// (De Morgan) and returns an AND/OR tree over plain comparisons.
func normalize(e Expr, neg bool) Expr {
	switch x := e.(type) {
	case *NotExpr:
		return normalize(x.X, !neg)
	case *AndExpr:
		if neg {
			return &OrExpr{Left: normalize(x.Left, true), Right: normalize(x.Right, true)}
		}
		return &AndExpr{Left: normalize(x.Left, false), Right: normalize(x.Right, false)}
	case *OrExpr:
		if neg {
			return &AndExpr{Left: normalize(x.Left, true), Right: normalize(x.Right, true)}
		}
		return &OrExpr{Left: normalize(x.Left, false), Right: normalize(x.Right, false)}
	case *Cmp:
		if neg {
			return &Cmp{Col: x.Col, Op: negateOp(x.Op), Lit: x.Lit}
		}
		return x
	}
	return e
}

func negateOp(op string) string {
	switch op {
	case "=":
		return "!="
	case "!=":
		return "="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	default: // ">="
		return "<"
	}
}

// conjuncts flattens top-level ANDs into a conjunct list.
func conjuncts(e Expr) []Expr {
	if a, ok := e.(*AndExpr); ok {
		return append(conjuncts(a.Left), conjuncts(a.Right)...)
	}
	return []Expr{e}
}

// conjoin rebuilds a left-associated AND tree; nil for an empty list.
func conjoin(conjs []Expr) Expr {
	if len(conjs) == 0 {
		return nil
	}
	e := conjs[0]
	for _, c := range conjs[1:] {
		e = &AndExpr{Left: e, Right: c}
	}
	return e
}

// Explain renders the plan, one operator per line, scan first. An
// indexed plan's first line reads "index scan …"; a full scan's reads
// "full scan …".
func (p *Plan) Explain() string {
	var b strings.Builder
	if p.IndexField != "" {
		fmt.Fprintf(&b, "index scan on %s: %s = %s (%s index)",
			p.table.name, p.IndexField, StringVal(p.IndexKey).String(), p.IndexField)
	} else {
		fmt.Fprintf(&b, "full scan on %s", p.table.name)
	}
	if p.Filter != nil {
		fmt.Fprintf(&b, "\nfilter %s", p.Filter.String())
	}
	if len(p.groupBy) > 0 {
		names := make([]string, len(p.groupBy))
		for i, gi := range p.groupBy {
			names[i] = p.items[gi].name
		}
		fmt.Fprintf(&b, "\ngroup by %s", strings.Join(names, ", "))
	} else if p.grouped {
		b.WriteString("\naggregate over all rows")
	}
	names := make([]string, len(p.items))
	for i, it := range p.items {
		names[i] = it.name
	}
	fmt.Fprintf(&b, "\nselect %s", strings.Join(names, ", "))
	for _, o := range p.orderBy {
		dir := "asc"
		if o.desc {
			dir = "desc"
		}
		fmt.Fprintf(&b, "\norder by %s %s", p.items[o.item].name, dir)
	}
	if p.limit >= 0 {
		fmt.Fprintf(&b, "\nlimit %d", p.limit)
	}
	return b.String()
}
