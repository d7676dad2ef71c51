package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nvbench/internal/ast"
)

// Result is the output relation of executing a query: labeled columns and
// rows of cells. For a vis tree, the columns follow the select list order
// (x axis first, then y, then the optional grouping/color column).
type Result struct {
	Columns []string
	Rows    [][]Cell
}

// Key renders a row as a canonical string, used by set operators and the
// "result matching accuracy" metric.
func (r *Result) Key(row []Cell) string { return string(appendKey(nil, row)) }

// appendKey appends Key's text for row to b: the cells' String texts
// joined by \x1f.
func appendKey(b []byte, row []Cell) []byte {
	for i, c := range row {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = c.appendText(b)
	}
	return b
}

// Equal reports whether two results contain the same multiset of rows under
// the same column count (column labels are ignored: the paper's result
// matching compares data, not names).
func (r *Result) Equal(other *Result) bool {
	if r == nil || other == nil {
		return r == other
	}
	if len(r.Columns) != len(other.Columns) || len(r.Rows) != len(other.Rows) {
		return false
	}
	counts := map[string]int{}
	for _, row := range r.Rows {
		counts[r.Key(row)]++
	}
	for _, row := range other.Rows {
		counts[other.Key(row)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}

// EqualOrdered reports whether two results contain the same rows in the
// same order — the comparison for queries whose visualization sorts its
// axis (column labels are ignored, as in Equal).
func (r *Result) EqualOrdered(other *Result) bool {
	if r == nil || other == nil {
		return r == other
	}
	if len(r.Columns) != len(other.Columns) || len(r.Rows) != len(other.Rows) {
		return false
	}
	for i := range r.Rows {
		if r.Key(r.Rows[i]) != other.Key(other.Rows[i]) {
			return false
		}
	}
	return true
}

// maxJoinRows bounds the size of intermediate join products so that a
// malformed query cannot exhaust memory.
const maxJoinRows = 2_000_000

// Execute evaluates a query tree against a database.
func Execute(db *Database, q *ast.Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.SetOp == ast.SetNone {
		return execCore(db, q.Left)
	}
	left, err := execCore(db, q.Left)
	if err != nil {
		return nil, err
	}
	right, err := execCore(db, q.Right)
	if err != nil {
		return nil, err
	}
	if len(left.Columns) != len(right.Columns) {
		return nil, fmt.Errorf("dataset: set operand arity mismatch (%d vs %d)", len(left.Columns), len(right.Columns))
	}
	out := &Result{Columns: left.Columns}
	switch q.SetOp {
	case ast.SetUnion:
		seen := map[string]bool{}
		for _, rows := range [][][]Cell{left.Rows, right.Rows} {
			for _, row := range rows {
				k := out.Key(row)
				if !seen[k] {
					seen[k] = true
					out.Rows = append(out.Rows, row)
				}
			}
		}
	case ast.SetIntersect:
		inRight := map[string]bool{}
		for _, row := range right.Rows {
			inRight[right.Key(row)] = true
		}
		seen := map[string]bool{}
		for _, row := range left.Rows {
			k := left.Key(row)
			if inRight[k] && !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, row)
			}
		}
	case ast.SetExcept:
		inRight := map[string]bool{}
		for _, row := range right.Rows {
			inRight[right.Key(row)] = true
		}
		seen := map[string]bool{}
		for _, row := range left.Rows {
			k := left.Key(row)
			if !inRight[k] && !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, row)
			}
		}
	default:
		return nil, fmt.Errorf("dataset: unsupported set operator %v", q.SetOp)
	}
	return out, nil
}

// relation is a working set of rows over the columns of one or more
// tables laid side by side. A column is named "table.column" after its
// table, as ast.Attr.Key names it.
type relation struct {
	segs []segment
	rows [][]Cell
}

// segment places one table's columns in a relation's rows, starting at
// column off.
type segment struct {
	t   *Table
	off int
}

func relationFromTable(t *Table) *relation {
	return &relation{segs: []segment{{t: t}}, rows: t.Rows}
}

// width is the number of columns of the relation.
func (r *relation) width() int {
	last := r.segs[len(r.segs)-1]
	return last.off + len(last.t.Columns)
}

// withTable returns r's segments followed by one for t's columns.
func (r *relation) withTable(t *Table) []segment {
	segs := make([]segment, len(r.segs), len(r.segs)+1)
	copy(segs, r.segs)
	return append(segs, segment{t: t, off: r.width()})
}

// col resolves the column that ast.Attr.Key names for (table, column):
// "table.column", or column alone when table is empty. A '.' inside a
// table or column name can make two columns spell one name; the scan
// runs from the last column to the first, so the last one wins.
func (r *relation) col(table, column string) (int, ColType, bool) {
	for s := len(r.segs) - 1; s >= 0; s-- {
		seg := r.segs[s]
		for i := len(seg.t.Columns) - 1; i >= 0; i-- {
			c := seg.t.Columns[i]
			if spells(seg.t.Name, c.Name, table, column) {
				return seg.off + i, c.Type, true
			}
		}
	}
	return 0, 0, false
}

// spells reports whether table+"."+column is the text of the key
// kt+"."+kc (kc alone when kt is empty), without building either string.
func spells(table, column, kt, kc string) bool {
	if kt == "" {
		n := len(table)
		return len(kc) == n+1+len(column) && kc[n] == '.' && kc[:n] == table && kc[n+1:] == column
	}
	if table == kt {
		return column == kc
	}
	if len(table)+len(column) != len(kt)+len(kc) {
		return false
	}
	// Two different splits of one text: with table the shorter name, the
	// text is table.head.kc, where kt is table.head and column is head.kc.
	switch {
	case len(table) == len(kt):
		return false
	case len(table) > len(kt):
		table, column, kt, kc = kt, kc, table, column
	}
	n := len(table)
	head := kt[n+1:]
	return kt[n] == '.' && kt[:n] == table && column[len(head)] == '.' && column[:len(head)] == head && column[len(head)+1:] == kc
}

// sameKey reports whether a.Key() == b.Key().
func sameKey(a, b ast.Attr) bool {
	switch {
	case a.Table == "" && b.Table == "":
		return a.Column == b.Column
	case a.Table == "":
		return spells(b.Table, b.Column, "", a.Column)
	default:
		return spells(a.Table, a.Column, b.Table, b.Column)
	}
}

// attrPlan is an attribute resolved against a relation once per
// execution: the grouping it reads, COUNT(*), or its column. A column
// that does not resolve keeps its error, raised only when a row or group
// reaches the attribute.
type attrPlan struct {
	attr  ast.Attr
	group int  // index of the GROUP BY attribute with the same key, or -1
	star  bool // COUNT(*), which reads no column
	col   int
	typ   ColType
	err   error
}

// planColumn resolves a's column; what names its role in the error.
func planColumn(rel *relation, a ast.Attr, what string) attrPlan {
	p := attrPlan{attr: a, group: -1}
	var ok bool
	if p.col, p.typ, ok = rel.col(a.Table, a.Column); !ok {
		p.err = fmt.Errorf("dataset: unknown %s %s", what, a.Key())
	}
	return p
}

// planAggregate resolves the column an aggregate attribute reads.
func planAggregate(rel *relation, a ast.Attr) attrPlan {
	if a.Agg == ast.AggCount && a.Column == "*" {
		return attrPlan{attr: a, group: -1, star: true}
	}
	return planColumn(rel, a, "column")
}

// planSelect resolves one select attribute of a grouped core: an
// aggregate, a grouping attribute (which reads the group's key), or a
// bare column (which reads the group's first row).
func planSelect(rel *relation, c *ast.Core, a ast.Attr) attrPlan {
	if a.Agg != ast.AggNone {
		return planAggregate(rel, a)
	}
	for gi, g := range c.Groups {
		if sameKey(g.Attr, a) {
			return attrPlan{attr: a, group: gi}
		}
	}
	return planColumn(rel, a, "column")
}

// filterPlan is a core's filter tree, root first, with each leaf's
// attribute resolved once per execution: a WHERE leaf's column, or a
// HAVING leaf's aggregate.
type filterPlan []filterNode

type filterNode struct {
	f           *ast.Filter
	left, right int // a connective's children, -1 for none
	attr        attrPlan
}

// add appends f's subtree and returns the index of f's node, or -1 for
// a nil f.
func (p *filterPlan) add(rel *relation, f *ast.Filter) int {
	if f == nil {
		return -1
	}
	i := len(*p)
	*p = append(*p, filterNode{f: f, left: -1, right: -1})
	switch {
	case f.Op.IsConnective():
		l := p.add(rel, f.Left)
		r := p.add(rel, f.Right)
		(*p)[i].left, (*p)[i].right = l, r
	case f.Having:
		(*p)[i].attr = planAggregate(rel, f.Attr)
	default:
		(*p)[i].attr = planColumn(rel, f.Attr, "filter column")
	}
	return i
}

// subqueries holds the values of each subquery leaf of one core's filter
// tree, keyed by the leaf. A subquery is uncorrelated — it never refers to
// the outer row — so one execution serves every row and group the filter
// visits. Each entry is filled the first time a row reaches its leaf, so
// a leaf no row reaches never runs its subquery.
type subqueries map[*ast.Filter][]ast.Value

func execCore(db *Database, c *ast.Core) (*Result, error) {
	rel, err := buildJoin(db, c.Tables)
	if err != nil {
		return nil, err
	}
	subs := subqueries{}
	var filter filterPlan
	// WHERE: evaluate the filter tree with having-leaves treated as true.
	if c.Filter != nil {
		filter.add(rel, c.Filter)
		kept := make([][]Cell, 0, len(rel.rows))
		for _, row := range rel.rows {
			ok, err := filter.eval(db, subs, 0, row, nil)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rel = &relation{segs: rel.segs, rows: kept}
	}

	hasAgg := false
	for _, a := range c.Select {
		if a.Agg != ast.AggNone {
			hasAgg = true
		}
	}
	if len(c.Groups) > 0 || hasAgg {
		return execGrouped(db, subs, filter, rel, c)
	}
	return execPlain(rel, c)
}

// execPlain projects, orders and limits without grouping. The projected
// rows are carved from one slice of cells.
func execPlain(rel *relation, c *ast.Core) (*Result, error) {
	out := &Result{Columns: make([]string, len(c.Select))}
	idxs := make([]int, len(c.Select))
	distinct := false
	for i, a := range c.Select {
		out.Columns[i] = a.String()
		j, _, ok := rel.col(a.Table, a.Column)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown column %s", a.Key())
		}
		idxs[i] = j
		distinct = distinct || a.Distinct
	}
	n := len(idxs)
	cells := make([]Cell, len(rel.rows)*n)
	rows := make([][]Cell, 0, len(rel.rows))
	var seen *textSet
	if distinct {
		seen = newTextSet(0)
	}
	var buf []byte
	for _, row := range rel.rows {
		off := len(rows) * n
		proj := cells[off : off+n : off+n]
		for i, j := range idxs {
			proj[i] = row[j]
		}
		if distinct {
			buf = appendKey(buf[:0], proj)
			if _, added := seen.add(buf); !added {
				continue
			}
		}
		rows = append(rows, proj)
	}
	if len(rows) > 0 {
		out.Rows = rows
	}
	if err := orderAndLimit(c, out); err != nil {
		return nil, err
	}
	return out, nil
}

// execGrouped evaluates grouping/binning, aggregates, having, order and
// superlative over a filtered relation. The result rows are carved from
// one slice of cells.
func execGrouped(db *Database, subs subqueries, filter filterPlan, rel *relation, c *ast.Core) (*Result, error) {
	groups, err := groupRows(rel, c)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: make([]string, len(c.Select))}
	plans := make([]attrPlan, len(c.Select))
	for i, a := range c.Select {
		out.Columns[i] = a.String()
		plans[i] = planSelect(rel, c, a)
	}
	n := len(plans)
	cells := make([]Cell, len(groups)*n)
	rows := make([][]Cell, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		// HAVING: evaluate the filter tree with where-leaves treated as
		// true, over the group's aggregates.
		if len(filter) > 0 {
			ok, err := filter.eval(db, subs, 0, nil, g)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		off := len(rows) * n
		row := cells[off : off+n : off+n]
		for i := range plans {
			cell, err := evalSelectAttr(g, &plans[i])
			if err != nil {
				return nil, err
			}
			row[i] = cell
		}
		rows = append(rows, row)
	}
	if len(rows) > 0 {
		out.Rows = rows
	}
	if err := orderAndLimit(c, out); err != nil {
		return nil, err
	}
	return out, nil
}

// group is one group of a grouped core's rows.
type group struct {
	key  []Cell   // the group's first row's (binned) grouping cells
	rows [][]Cell // the group's rows, in relation order
}

// textSet numbers distinct texts in order of first appearance. Each new
// text is appended to all, and its map key is the substring of all that
// holds it: a strings.Builder only ever appends, so the substring stays
// valid as all grows. Adding a text thus allocates only as the map and
// all grow, and a lookup with string(b) allocates nothing.
type textSet struct {
	ids map[string]int32
	all strings.Builder
}

// newTextSet returns a set sized for about n texts.
func newTextSet(n int) *textSet {
	return &textSet{ids: make(map[string]int32, n)}
}

// add returns b's id, numbering b if it is new; added reports whether it
// was. A new text ends at s.all.Len().
func (s *textSet) add(b []byte) (id int32, added bool) {
	if id, ok := s.ids[string(b)]; ok {
		return id, false
	}
	s.all.Write(b)
	all := s.all.String()
	id = int32(len(s.ids))
	s.ids[all[len(all)-len(b):]] = id
	return id, true
}

// groupRows partitions the relation's rows by the core's (possibly binned)
// group attributes and returns the groups ordered by key text. Each
// group's rows keep their relation order. With no GROUP BY, every row
// falls in one group — even over an empty relation, so that an
// aggregate-only query still yields its row (COUNT(*) of nothing is 0).
//
// One pass writes each row's key text into a reused buffer and numbers
// the distinct texts; only the group ids are sorted. The group states,
// their key cells and their row lists are then carved from slices
// allocated once per call, and a binned key cell's label is a substring
// of its group's text.
func groupRows(rel *relation, c *ast.Core) ([]group, error) {
	if len(c.Groups) == 0 {
		return []group{{key: []Cell{S("")}, rows: rel.rows}}, nil
	}
	// Each grouping's column and, for numeric bins, the bins' origin and
	// width.
	type grouping struct {
		g         ast.Group
		col       int
		min, size float64
	}
	gs := make([]grouping, len(c.Groups))
	for gi, g := range c.Groups {
		j, _, ok := rel.col(g.Attr.Table, g.Attr.Column)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown group column %s", g.Attr.Key())
		}
		gs[gi] = grouping{g: g, col: j}
		if g.Kind == ast.Binning && g.Bin == ast.BinNumeric {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, row := range rel.rows {
				if v, ok := row[j].Number(); ok {
					mn = math.Min(mn, v)
					mx = math.Max(mx, v)
				}
			}
			n := g.NumBins
			if n <= 0 {
				n = ast.DefaultNumBins
			}
			size := math.Ceil((mx - mn) / float64(n))
			if size <= 0 || math.IsInf(size, 0) || math.IsNaN(size) {
				size = 1
			}
			gs[gi].min, gs[gi].size = mn, size
		}
	}
	// appendCell appends grouping gi's key text for row's cell.
	appendCell := func(b []byte, gi int, row []Cell) []byte {
		g := &gs[gi]
		if g.g.Kind == ast.Binning {
			return appendBinText(b, row[g.col], g.g.Bin, g.min, g.size)
		}
		return row[g.col].appendText(b)
	}

	// Number the rows' key texts. A group's text is texts.all[end of the
	// previous group's:end].
	type info struct{ first, count, end int32 }
	texts := newTextSet(0)
	infos := make([]info, 0, 8)
	ids := make([]int32, len(rel.rows))
	var buf []byte
	for ri, row := range rel.rows {
		buf = buf[:0]
		for gi := range gs {
			if gi > 0 {
				buf = append(buf, '\x1f')
			}
			buf = appendCell(buf, gi, row)
		}
		id, added := texts.add(buf)
		if added {
			infos = append(infos, info{first: int32(ri), end: int32(texts.all.Len())})
		}
		ids[ri] = id
		infos[id].count++
	}
	all := texts.all.String()
	text := func(id int32) string {
		start := int32(0)
		if id > 0 {
			start = infos[id-1].end
		}
		return all[start:infos[id].end]
	}
	order := make([]int32, len(infos))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(text(a), text(b)) })

	// Carve the groups in key order. A binned key cell's label is found
	// by printing the first row's key again, cell by cell.
	k := len(gs)
	groups := make([]group, len(order))
	keys := make([]Cell, len(order)*k)
	backing := make([][]Cell, len(rel.rows))
	off := int32(0)
	for p, id := range order {
		key := keys[p*k : (p+1)*k : (p+1)*k]
		row, keyText := rel.rows[infos[id].first], text(id)
		start := 0
		for gi := range gs {
			end := len(appendCell(buf[:0], gi, row)) + start
			key[gi] = row[gs[gi].col]
			if gs[gi].g.Kind == ast.Binning {
				key[gi] = binKey(key[gi], gs[gi].g.Bin, keyText[start:end])
			}
			start = end + 1
		}
		n := infos[id].count
		groups[p] = group{key: key, rows: backing[off : off+n : off+n]}
		infos[id].count = off // from here on: the group's next free slot in backing
		off += n
	}
	for ri, row := range rel.rows {
		id := ids[ri]
		backing[infos[id].count] = row
		infos[id].count++
	}
	return groups, nil
}

// evalSelectAttr computes one select attribute for a group: either an
// aggregate over the group's rows, or the group-key / first value for a bare
// column.
func evalSelectAttr(g *group, p *attrPlan) (Cell, error) {
	switch {
	case p.attr.Agg != ast.AggNone:
		return aggregate(g.rows, p)
	case p.group >= 0:
		return g.key[p.group], nil
	case p.err != nil:
		return Cell{}, p.err
	case len(g.rows) == 0:
		return Null(p.typ), nil
	default:
		return g.rows[0][p.col], nil
	}
}

// aggregate computes an aggregate attribute over a set of rows.
func aggregate(rows [][]Cell, p *attrPlan) (Cell, error) {
	if p.star {
		return N(float64(len(rows))), nil
	}
	if p.err != nil {
		return Cell{}, p.err
	}
	j := p.col
	switch p.attr.Agg {
	case ast.AggCount:
		if p.attr.Distinct {
			seen := newTextSet(0)
			var buf []byte
			for _, row := range rows {
				if !row[j].Null {
					buf = row[j].appendText(buf[:0])
					seen.add(buf)
				}
			}
			return N(float64(len(seen.ids))), nil
		}
		n := 0
		for _, row := range rows {
			if !row[j].Null {
				n++
			}
		}
		return N(float64(n)), nil
	case ast.AggMax, ast.AggMin:
		var best Cell
		has := false
		for _, row := range rows {
			if row[j].Null {
				continue
			}
			if !has {
				best, has = row[j], true
				continue
			}
			cmp := row[j].Compare(best)
			if (p.attr.Agg == ast.AggMax && cmp > 0) || (p.attr.Agg == ast.AggMin && cmp < 0) {
				best = row[j]
			}
		}
		if !has {
			return Null(p.typ), nil
		}
		return best, nil
	case ast.AggSum, ast.AggAvg:
		sum, n := 0.0, 0
		for _, row := range rows {
			if v, ok := row[j].Number(); ok {
				sum += v
				n++
			}
		}
		if p.attr.Agg == ast.AggAvg {
			if n == 0 {
				return Null(Quantitative), nil
			}
			return N(sum / float64(n)), nil
		}
		return N(sum), nil
	default:
		return Cell{}, fmt.Errorf("dataset: unsupported aggregate %v", p.attr.Agg)
	}
}

// binCell maps a cell into its bin label.
func binCell(c Cell, g ast.Group, min, size float64) Cell {
	return binKey(c, g.Bin, string(appendBinText(nil, c, g.Bin, min, size)))
}

// binKey is the key cell of c binned by unit u, given its label text:
// a categorical cell of the label, or c itself when u maps no labels
// and c is not null.
func binKey(c Cell, u ast.BinUnit, label string) Cell {
	switch u {
	case ast.BinMinute, ast.BinHour, ast.BinWeekday, ast.BinMonth, ast.BinQuarter, ast.BinYear, ast.BinNumeric:
		return S(label)
	default:
		if c.Null {
			return S(label)
		}
		// BinNone: the cell passes through unbinned.
		return c
	}
}

// appendBinText appends the label of c's bin under unit u to b: the text
// of binCell's cell.
func appendBinText(b []byte, c Cell, u ast.BinUnit, min, size float64) []byte {
	if c.Null {
		return append(b, "NULL"...)
	}
	switch u {
	case ast.BinMinute:
		return c.Time.AppendFormat(b, "15:04")
	case ast.BinHour:
		return c.Time.AppendFormat(b, "15:00")
	case ast.BinWeekday:
		return append(b, c.Time.Weekday().String()...)
	case ast.BinMonth:
		return append(b, c.Time.Month().String()...)
	case ast.BinQuarter:
		return strconv.AppendInt(append(b, 'Q'), int64((int(c.Time.Month())-1)/3+1), 10)
	case ast.BinYear:
		return strconv.AppendInt(b, int64(c.Time.Year()), 10)
	case ast.BinNumeric:
		v, ok := c.Number()
		if !ok {
			return append(b, "NULL"...)
		}
		idx := 0
		if size > 0 {
			idx = int(math.Floor((v - min) / size))
		}
		lo := min + float64(idx)*size
		// The bounds print as %g does.
		b = strconv.AppendFloat(append(b, '['), lo, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ','), lo+size, 'g', -1, 64)
		return append(b, ')')
	default:
		return c.appendText(b)
	}
}

// orderAndLimit applies the Order or Superlative subtree to a materialized
// result. The sorted attribute must be one of the select attributes (the
// synthesizer guarantees this invariant).
func orderAndLimit(c *ast.Core, out *Result) error {
	sortBy := func(a ast.Attr, desc bool) error {
		col := -1
		want := a.String()
		for i, label := range out.Columns {
			if label == want {
				col = i
				break
			}
		}
		if col < 0 {
			// Fall back to matching the bare key (the synthesizer may order
			// by the unaggregated form of a selected attribute).
			for i, label := range out.Columns {
				if strings.HasSuffix(label, a.Key()) {
					col = i
					break
				}
			}
		}
		if col < 0 {
			return fmt.Errorf("dataset: order attribute %s not in select list", want)
		}
		sort.SliceStable(out.Rows, func(i, j int) bool {
			cmp := out.Rows[i][col].Compare(out.Rows[j][col])
			if desc {
				return cmp > 0
			}
			return cmp < 0
		})
		return nil
	}
	if c.Order != nil {
		return sortBy(c.Order.Attr, c.Order.Dir == ast.Desc)
	}
	if c.Superlative != nil {
		if err := sortBy(c.Superlative.Attr, c.Superlative.Most); err != nil {
			return err
		}
		k := c.Superlative.K
		if k > 0 && k < len(out.Rows) {
			out.Rows = out.Rows[:k]
		}
	}
	return nil
}

// buildJoin materializes the join of the requested tables along foreign-key
// edges, falling back to a bounded cross product when no key path exists.
func buildJoin(db *Database, tables []string) (*relation, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("dataset: no tables")
	}
	t0 := db.Table(tables[0])
	if t0 == nil {
		return nil, fmt.Errorf("dataset: unknown table %q", tables[0])
	}
	rel := relationFromTable(t0)
	joined := map[string]bool{tables[0]: true}
	remaining := append([]string(nil), tables[1:]...)
	for len(remaining) > 0 {
		progressed := false
		for i, name := range remaining {
			if joined[name] {
				remaining = append(remaining[:i], remaining[i+1:]...)
				progressed = true
				break
			}
			t := db.Table(name)
			if t == nil {
				return nil, fmt.Errorf("dataset: unknown table %q", name)
			}
			fk, ok := findFK(db, joined, name)
			if !ok {
				continue
			}
			var err error
			rel, err = hashJoin(rel, t, fk)
			if err != nil {
				return nil, err
			}
			joined[name] = true
			remaining = append(remaining[:i], remaining[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			// No foreign key connects the remaining tables: cross join the
			// first one (bounded).
			name := remaining[0]
			t := db.Table(name)
			if t == nil {
				return nil, fmt.Errorf("dataset: unknown table %q", name)
			}
			var err error
			rel, err = crossJoin(rel, t)
			if err != nil {
				return nil, err
			}
			joined[name] = true
			remaining = remaining[1:]
		}
	}
	return rel, nil
}

// findFK locates a foreign key between the joined set and the new table.
func findFK(db *Database, joined map[string]bool, next string) (ForeignKey, bool) {
	for _, fk := range db.ForeignKeys {
		if joined[fk.FromTable] && fk.ToTable == next {
			return fk, true
		}
		if joined[fk.ToTable] && fk.FromTable == next {
			// Reverse the edge so that From refers to the joined side.
			return ForeignKey{
				FromTable: fk.ToTable, FromColumn: fk.ToColumn,
				ToTable: fk.FromTable, ToColumn: fk.FromColumn,
			}, true
		}
	}
	return ForeignKey{}, false
}

// hashJoin joins t's rows to rel's on fk. Rows match when their key cells
// print the same text. It counts the matches first, then carves the joined
// rows from one slice of cells.
func hashJoin(rel *relation, t *Table, fk ForeignKey) (*relation, error) {
	table, column := fk.FromTable, fk.FromColumn
	if table == "" {
		// The join column is named "table.column" even for an empty table
		// name, where col would read the bare column.
		column = "." + column
	}
	leftIdx, _, ok := rel.col(table, column)
	if !ok {
		return nil, fmt.Errorf("dataset: join column %s.%s missing", fk.FromTable, fk.FromColumn)
	}
	rightIdx := t.ColumnIndex(fk.ToColumn)
	if rightIdx < 0 {
		return nil, fmt.Errorf("dataset: join column %s.%s missing", t.Name, fk.ToColumn)
	}
	// Chain t's rows by key text: bucket b starts at row head[b], row ri
	// is followed by next[ri] in table order (-1 ends a chain), and size[b]
	// counts the chain.
	keys := newTextSet(len(t.Rows))
	next := make([]int32, len(t.Rows))
	var head, size []int32
	var buf []byte
	for ri := len(t.Rows) - 1; ri >= 0; ri-- {
		buf = t.Rows[ri][rightIdx].appendText(buf[:0])
		b, added := keys.add(buf)
		if added {
			head, size = append(head, -1), append(size, 0)
		}
		next[ri], head[b] = head[b], int32(ri)
		size[b]++
	}

	matches := make([]int32, len(rel.rows))
	total := 0
	for li, lrow := range rel.rows {
		buf = lrow[leftIdx].appendText(buf[:0])
		b, ok := keys.ids[string(buf)]
		if !ok {
			matches[li] = -1
			continue
		}
		matches[li] = b
		if total += int(size[b]); total > maxJoinRows {
			return nil, fmt.Errorf("dataset: join exceeds %d rows", maxJoinRows)
		}
	}
	out := &relation{segs: rel.withTable(t), rows: make([][]Cell, 0, total)}
	cells := make([]Cell, 0, total*out.width())
	for li, lrow := range rel.rows {
		if b := matches[li]; b >= 0 {
			for ri := head[b]; ri >= 0; ri = next[ri] {
				out.rows, cells = appendJoined(out.rows, cells, lrow, t.Rows[ri])
			}
		}
	}
	return out, nil
}

// appendJoined appends the row lrow+rrow to rows, its cells to cells.
// Rows carved before cells grows keep the cells they were carved from.
func appendJoined(rows [][]Cell, cells, lrow, rrow []Cell) ([][]Cell, []Cell) {
	start := len(cells)
	cells = append(append(cells, lrow...), rrow...)
	return append(rows, cells[start:len(cells):len(cells)]), cells
}

func crossJoin(rel *relation, t *Table) (*relation, error) {
	total := len(rel.rows) * len(t.Rows)
	if total > maxJoinRows {
		return nil, fmt.Errorf("dataset: cross join exceeds %d rows", maxJoinRows)
	}
	out := &relation{segs: rel.withTable(t), rows: make([][]Cell, 0, total)}
	cells := make([]Cell, 0, total*out.width())
	for _, lrow := range rel.rows {
		for _, rrow := range t.Rows {
			out.rows, cells = appendJoined(out.rows, cells, lrow, rrow)
		}
	}
	return out, nil
}

// eval evaluates the filter subtree at node i. Over a row (g nil) it is
// the WHERE phase, with having-leaves treated as true; over a group it is
// the HAVING phase, with where-leaves treated as true.
func (p filterPlan) eval(db *Database, subs subqueries, i int, row []Cell, g *group) (bool, error) {
	if i < 0 {
		return true, nil
	}
	n := &p[i]
	switch n.f.Op {
	case ast.FilterAnd:
		l, err := p.eval(db, subs, n.left, row, g)
		if err != nil || !l {
			return false, err
		}
		return p.eval(db, subs, n.right, row, g)
	case ast.FilterOr:
		l, err := p.eval(db, subs, n.left, row, g)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return p.eval(db, subs, n.right, row, g)
	default:
		// Every other operator is a leaf predicate, evaluated below.
	}
	if n.f.Having != (g != nil) {
		return true, nil
	}
	if g != nil {
		cell, err := aggregate(g.rows, &n.attr)
		if err != nil {
			return false, err
		}
		return evalPredicate(db, subs, cell, n.f)
	}
	if n.attr.err != nil {
		return false, n.attr.err
	}
	return evalPredicate(db, subs, row[n.attr.col], n.f)
}

// evalPredicate compares a cell against the filter's literal values or
// subquery.
func evalPredicate(db *Database, subs subqueries, cell Cell, f *ast.Filter) (bool, error) {
	values := f.Values
	if f.Sub != nil {
		var err error
		if values, err = subs.values(db, f); err != nil {
			return false, err
		}
		if f.Op != ast.FilterIn && f.Op != ast.FilterNotIn && f.Op != ast.FilterBetween {
			// Scalar subquery: use the first row only.
			if len(values) == 0 {
				return false, nil
			}
			values = values[:1]
		}
	}
	switch f.Op {
	case ast.FilterIn, ast.FilterNotIn:
		found := false
		for _, v := range values {
			if compareCellValue(cell, v) == 0 {
				found = true
				break
			}
		}
		if f.Op == ast.FilterIn {
			return found, nil
		}
		return !found, nil
	case ast.FilterBetween:
		if len(values) < 2 {
			return false, fmt.Errorf("dataset: between needs two values")
		}
		return compareCellValue(cell, values[0]) >= 0 && compareCellValue(cell, values[1]) <= 0, nil
	case ast.FilterLike, ast.FilterNotLike:
		if len(values) != 1 {
			return false, fmt.Errorf("dataset: like needs one value")
		}
		m := likeMatch(cell.String(), values[0].Str)
		if f.Op == ast.FilterLike {
			return m, nil
		}
		return !m, nil
	default:
		// Single-value comparison operators are evaluated below.
	}
	if len(values) != 1 {
		return false, fmt.Errorf("dataset: %s needs one value", f.Op)
	}
	cmp := compareCellValue(cell, values[0])
	switch f.Op {
	case ast.FilterGT:
		return cmp > 0, nil
	case ast.FilterLT:
		return cmp < 0, nil
	case ast.FilterGE:
		return cmp >= 0, nil
	case ast.FilterLE:
		return cmp <= 0, nil
	case ast.FilterEQ:
		return cmp == 0, nil
	case ast.FilterNE:
		return cmp != 0, nil
	default:
		return false, fmt.Errorf("dataset: unsupported filter op %v", f.Op)
	}
}

// values returns the first column of f's subquery result, executing the
// subquery on the first call for f.
func (subs subqueries) values(db *Database, f *ast.Filter) ([]ast.Value, error) {
	if values, ok := subs[f]; ok {
		return values, nil
	}
	res, err := Execute(db, f.Sub)
	if err != nil {
		return nil, err
	}
	values := []ast.Value{}
	for _, row := range res.Rows {
		if len(row) > 0 {
			values = append(values, cellToValue(row[0]))
		}
	}
	subs[f] = values
	return values, nil
}

func cellToValue(c Cell) ast.Value {
	if v, ok := c.Number(); ok && c.Kind == Quantitative {
		return ast.NumberValue(v)
	}
	return ast.StringValue(c.String())
}

func compareCellValue(c Cell, v ast.Value) int {
	if v.Kind == ast.ValueNumber {
		n, ok := c.Number()
		if !ok {
			return -1
		}
		switch {
		case n < v.Num:
			return -1
		case n > v.Num:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(c.String(), v.Str)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// case-insensitively (SQLite semantics, which Spider uses).
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}
