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

// relation is a working set of rows over qualified column names.
type relation struct {
	cols  []string // qualified "table.column"
	types []ColType
	index map[string]int
	rows  [][]Cell
}

func newRelation() *relation {
	return &relation{index: map[string]int{}}
}

func relationFromTable(t *Table) *relation {
	r := newRelation()
	for _, c := range t.Columns {
		key := t.Name + "." + c.Name
		r.index[key] = len(r.cols)
		r.cols = append(r.cols, key)
		r.types = append(r.types, c.Type)
	}
	r.rows = t.Rows
	return r
}

func (r *relation) col(key string) (int, bool) {
	i, ok := r.index[key]
	return i, ok
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
	// WHERE: evaluate the filter tree with having-leaves treated as true.
	if c.Filter != nil {
		kept := rel.rows[:0:0]
		for _, row := range rel.rows {
			ok, err := evalFilter(db, subs, rel, row, c.Filter, false)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rel = &relation{cols: rel.cols, types: rel.types, index: rel.index, rows: kept}
	}

	hasAgg := false
	for _, a := range c.Select {
		if a.Agg != ast.AggNone {
			hasAgg = true
		}
	}
	if len(c.Groups) > 0 || hasAgg {
		return execGrouped(db, subs, rel, c)
	}
	return execPlain(db, rel, c)
}

// execPlain projects, orders and limits without grouping.
func execPlain(db *Database, rel *relation, c *ast.Core) (*Result, error) {
	out := &Result{}
	idxs := make([]int, len(c.Select))
	for i, a := range c.Select {
		out.Columns = append(out.Columns, a.String())
		j, ok := rel.col(a.Key())
		if !ok {
			return nil, fmt.Errorf("dataset: unknown column %s", a.Key())
		}
		idxs[i] = j
	}
	seen := map[string]bool{}
	distinct := false
	for _, a := range c.Select {
		if a.Distinct {
			distinct = true
		}
	}
	for _, row := range rel.rows {
		proj := make([]Cell, len(idxs))
		for i, j := range idxs {
			proj[i] = row[j]
		}
		if distinct {
			k := out.Key(proj)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out.Rows = append(out.Rows, proj)
	}
	if err := orderAndLimit(db, rel, c, out); err != nil {
		return nil, err
	}
	return out, nil
}

// groupState accumulates rows for one group key.
type groupState struct {
	key  []Cell
	text string // key's Key text, which orders the groups
	rows [][]Cell
}

// execGrouped evaluates grouping/binning, aggregates, having, order and
// superlative over a filtered relation.
func execGrouped(db *Database, subs subqueries, rel *relation, c *ast.Core) (*Result, error) {
	groups, err := groupRows(rel, c)
	if err != nil {
		return nil, err
	}
	out := &Result{}
	for _, a := range c.Select {
		out.Columns = append(out.Columns, a.String())
	}
	for _, g := range groups {
		// HAVING: evaluate the filter tree with where-leaves treated as
		// true, over the group's aggregates.
		if c.Filter != nil {
			ok, err := evalHaving(db, subs, rel, g, c.Filter)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		row := make([]Cell, len(c.Select))
		for i, a := range c.Select {
			cell, err := evalSelectAttr(rel, g, c, a)
			if err != nil {
				return nil, err
			}
			row[i] = cell
		}
		out.Rows = append(out.Rows, row)
	}
	if err := orderAndLimit(db, rel, c, out); err != nil {
		return nil, err
	}
	return out, nil
}

// groupRows partitions the relation's rows by the core's (possibly binned)
// group attributes and returns the groups ordered by key text. Each
// group's rows keep their relation order. With no GROUP BY, every row
// falls in one group — even over an empty relation, so that an
// aggregate-only query still yields its row (COUNT(*) of nothing is 0).
func groupRows(rel *relation, c *ast.Core) ([]*groupState, error) {
	if len(c.Groups) == 0 {
		return []*groupState{{key: []Cell{S("")}, rows: rel.rows}}, nil
	}
	type binInfo struct {
		min, max, size float64
	}
	binInfos := make([]binInfo, len(c.Groups))
	groupIdx := make([]int, len(c.Groups))
	for gi, g := range c.Groups {
		j, ok := rel.col(g.Attr.Key())
		if !ok {
			return nil, fmt.Errorf("dataset: unknown group column %s", g.Attr.Key())
		}
		groupIdx[gi] = j
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
			binInfos[gi] = binInfo{min: mn, max: mx, size: size}
		}
	}

	// One pass assigns each row its group. The key text is written into
	// one reused buffer; a group's key cells and text are allocated only
	// when the group first appears.
	var groups []*groupState
	var sizes []int
	byText := map[string]int{}
	ids := make([]int, len(rel.rows))
	key := make([]Cell, len(c.Groups))
	var buf []byte
	for ri, row := range rel.rows {
		for gi, g := range c.Groups {
			cell := row[groupIdx[gi]]
			if g.Kind == ast.Binning {
				cell = binCell(cell, g, binInfos[gi].min, binInfos[gi].size)
			}
			key[gi] = cell
		}
		buf = appendKey(buf[:0], key)
		id, ok := byText[string(buf)]
		if !ok {
			id = len(groups)
			text := string(buf)
			byText[text] = id
			groups = append(groups, &groupState{key: append([]Cell(nil), key...), text: text})
			sizes = append(sizes, 0)
		}
		ids[ri] = id
		sizes[id]++
	}
	// The groups' row lists share one backing slice.
	backing := make([][]Cell, len(rel.rows))
	off := 0
	for id, g := range groups {
		g.rows = backing[off : off : off+sizes[id]]
		off += sizes[id]
	}
	for ri, row := range rel.rows {
		g := groups[ids[ri]]
		g.rows = append(g.rows, row)
	}
	slices.SortFunc(groups, func(a, b *groupState) int { return strings.Compare(a.text, b.text) })
	return groups, nil
}

// evalSelectAttr computes one select attribute for a group: either an
// aggregate over the group's rows, or the group-key / first value for a bare
// column.
func evalSelectAttr(rel *relation, g *groupState, c *ast.Core, a ast.Attr) (Cell, error) {
	if a.Agg == ast.AggNone {
		// A bare column under grouping: if it is a group attribute, use the
		// (possibly binned) key; otherwise take the first row's value.
		for gi, grp := range c.Groups {
			if grp.Attr.Key() == a.Key() {
				return g.key[gi], nil
			}
		}
		j, ok := rel.col(a.Key())
		if !ok {
			return Cell{}, fmt.Errorf("dataset: unknown column %s", a.Key())
		}
		if len(g.rows) == 0 {
			return Null(rel.types[j]), nil
		}
		return g.rows[0][j], nil
	}
	return aggregate(rel, g.rows, a)
}

// aggregate computes an aggregate attribute over a set of rows.
func aggregate(rel *relation, rows [][]Cell, a ast.Attr) (Cell, error) {
	if a.Agg == ast.AggCount && a.Column == "*" {
		return N(float64(len(rows))), nil
	}
	j, ok := rel.col(a.Key())
	if !ok {
		return Cell{}, fmt.Errorf("dataset: unknown column %s", a.Key())
	}
	switch a.Agg {
	case ast.AggCount:
		if a.Distinct {
			seen := map[string]bool{}
			for _, row := range rows {
				if !row[j].Null {
					seen[row[j].String()] = true
				}
			}
			return N(float64(len(seen))), nil
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
			if (a.Agg == ast.AggMax && cmp > 0) || (a.Agg == ast.AggMin && cmp < 0) {
				best = row[j]
			}
		}
		if !has {
			return Null(rel.types[j]), nil
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
		if a.Agg == ast.AggAvg {
			if n == 0 {
				return Null(Quantitative), nil
			}
			return N(sum / float64(n)), nil
		}
		return N(sum), nil
	default:
		return Cell{}, fmt.Errorf("dataset: unsupported aggregate %v", a.Agg)
	}
}

// binCell maps a cell into its bin label.
func binCell(c Cell, g ast.Group, min, size float64) Cell {
	if c.Null {
		return S("NULL")
	}
	switch g.Bin {
	case ast.BinMinute:
		return S(c.Time.Format("15:04"))
	case ast.BinHour:
		return S(c.Time.Format("15:00"))
	case ast.BinWeekday:
		return S(c.Time.Weekday().String())
	case ast.BinMonth:
		return S(c.Time.Month().String())
	case ast.BinQuarter:
		return S("Q" + strconv.Itoa((int(c.Time.Month())-1)/3+1))
	case ast.BinYear:
		return S(strconv.Itoa(c.Time.Year()))
	case ast.BinNumeric:
		v, ok := c.Number()
		if !ok {
			return S("NULL")
		}
		idx := 0
		if size > 0 {
			idx = int(math.Floor((v - min) / size))
		}
		lo := min + float64(idx)*size
		// The bounds print as %g does.
		return S("[" + strconv.FormatFloat(lo, 'g', -1, 64) + "," + strconv.FormatFloat(lo+size, 'g', -1, 64) + ")")
	default:
		// BinNone: the cell passes through unbinned.
		return c
	}
}

// orderAndLimit applies the Order or Superlative subtree to a materialized
// result. The sorted attribute must be one of the select attributes (the
// synthesizer guarantees this invariant).
func orderAndLimit(db *Database, rel *relation, c *ast.Core, out *Result) error {
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

func hashJoin(rel *relation, t *Table, fk ForeignKey) (*relation, error) {
	leftIdx, ok := rel.col(fk.FromTable + "." + fk.FromColumn)
	if !ok {
		return nil, fmt.Errorf("dataset: join column %s.%s missing", fk.FromTable, fk.FromColumn)
	}
	rightIdx := t.ColumnIndex(fk.ToColumn)
	if rightIdx < 0 {
		return nil, fmt.Errorf("dataset: join column %s.%s missing", t.Name, fk.ToColumn)
	}
	out := newRelation()
	out.cols = append(out.cols, rel.cols...)
	out.types = append(out.types, rel.types...)
	for _, c := range t.Columns {
		out.cols = append(out.cols, t.Name+"."+c.Name)
		out.types = append(out.types, c.Type)
	}
	for i, c := range out.cols {
		out.index[c] = i
	}
	buckets := map[string][][]Cell{}
	for _, row := range t.Rows {
		k := row[rightIdx].String()
		buckets[k] = append(buckets[k], row)
	}
	for _, lrow := range rel.rows {
		for _, rrow := range buckets[lrow[leftIdx].String()] {
			combined := make([]Cell, 0, len(lrow)+len(rrow))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			out.rows = append(out.rows, combined)
			if len(out.rows) > maxJoinRows {
				return nil, fmt.Errorf("dataset: join exceeds %d rows", maxJoinRows)
			}
		}
	}
	return out, nil
}

func crossJoin(rel *relation, t *Table) (*relation, error) {
	if len(rel.rows)*len(t.Rows) > maxJoinRows {
		return nil, fmt.Errorf("dataset: cross join exceeds %d rows", maxJoinRows)
	}
	out := newRelation()
	out.cols = append(out.cols, rel.cols...)
	out.types = append(out.types, rel.types...)
	for _, c := range t.Columns {
		out.cols = append(out.cols, t.Name+"."+c.Name)
		out.types = append(out.types, c.Type)
	}
	for i, c := range out.cols {
		out.index[c] = i
	}
	for _, lrow := range rel.rows {
		for _, rrow := range t.Rows {
			combined := make([]Cell, 0, len(lrow)+len(rrow))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			out.rows = append(out.rows, combined)
		}
	}
	return out, nil
}

// evalFilter evaluates a filter tree on one row. Leaves whose Having flag
// differs from the having parameter evaluate to true (they are checked in
// the other phase).
func evalFilter(db *Database, subs subqueries, rel *relation, row []Cell, f *ast.Filter, having bool) (bool, error) {
	if f == nil {
		return true, nil
	}
	switch f.Op {
	case ast.FilterAnd:
		l, err := evalFilter(db, subs, rel, row, f.Left, having)
		if err != nil || !l {
			return false, err
		}
		return evalFilter(db, subs, rel, row, f.Right, having)
	case ast.FilterOr:
		l, err := evalFilter(db, subs, rel, row, f.Left, having)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return evalFilter(db, subs, rel, row, f.Right, having)
	default:
		// Every other operator is a leaf predicate, evaluated below.
	}
	if f.Having != having {
		return true, nil
	}
	j, ok := rel.col(f.Attr.Key())
	if !ok {
		return false, fmt.Errorf("dataset: unknown filter column %s", f.Attr.Key())
	}
	return evalPredicate(db, subs, row[j], f)
}

// evalHaving evaluates having-leaves over a group's aggregates.
func evalHaving(db *Database, subs subqueries, rel *relation, g *groupState, f *ast.Filter) (bool, error) {
	if f == nil {
		return true, nil
	}
	switch f.Op {
	case ast.FilterAnd:
		l, err := evalHaving(db, subs, rel, g, f.Left)
		if err != nil || !l {
			return false, err
		}
		return evalHaving(db, subs, rel, g, f.Right)
	case ast.FilterOr:
		l, err := evalHaving(db, subs, rel, g, f.Left)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return evalHaving(db, subs, rel, g, f.Right)
	default:
		// Every other operator is a leaf predicate, evaluated below.
	}
	if !f.Having {
		return true, nil
	}
	cell, err := aggregate(rel, g.rows, f.Attr)
	if err != nil {
		return false, err
	}
	return evalPredicate(db, subs, cell, f)
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
