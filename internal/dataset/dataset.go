// Package dataset is the relational substrate of the reproduction: an
// in-memory store of typed tables plus a query executor that evaluates the
// unified AST of package ast directly against the data. The synthesizer uses
// it to compute chart features (distinct counts, correlations) for the
// DeepEye filter, and package render uses it to materialize the data series
// behind a visualization.
package dataset

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ColType classifies a column as categorical (C), temporal (T) or
// quantitative (Q), the three-way typing used throughout the paper
// (Table 1, Table 2).
type ColType int

// Column types.
const (
	Categorical ColType = iota
	Temporal
	Quantitative
)

func (t ColType) String() string {
	switch t {
	case Categorical:
		return "C"
	case Temporal:
		return "T"
	case Quantitative:
		return "Q"
	}
	return "?"
}

// Cell is one typed value. Null cells carry no payload.
type Cell struct {
	Kind ColType
	Str  string
	Num  float64
	Time time.Time
	Null bool
}

// S constructs a categorical cell.
func S(s string) Cell { return Cell{Kind: Categorical, Str: s} }

// N constructs a quantitative cell.
func N(f float64) Cell { return Cell{Kind: Quantitative, Num: f} }

// T constructs a temporal cell.
func T(t time.Time) Cell { return Cell{Kind: Temporal, Time: t} }

// Null constructs a null cell of the given type.
func Null(k ColType) Cell { return Cell{Kind: k, Null: true} }

// String renders the cell for display and for group keys: integral numbers
// below 1e15 in magnitude as integers, other numbers as %g prints them.
func (c Cell) String() string {
	switch {
	case c.Null:
		return "NULL"
	case c.Kind == Quantitative || c.Kind == Temporal:
		var buf [32]byte
		return string(c.appendText(buf[:0]))
	default:
		return c.Str
	}
}

// appendText appends the cell's String text to b.
func (c Cell) appendText(b []byte) []byte {
	if c.Null {
		return append(b, "NULL"...)
	}
	switch c.Kind {
	case Quantitative:
		if c.Num == math.Trunc(c.Num) && math.Abs(c.Num) < 1e15 {
			return strconv.AppendInt(b, int64(c.Num), 10)
		}
		return strconv.AppendFloat(b, c.Num, 'g', -1, 64)
	case Temporal:
		return c.Time.AppendFormat(b, "2006-01-02 15:04:05")
	default:
		return append(b, c.Str...)
	}
}

// Number returns the cell's numeric interpretation: the value for Q cells,
// the Unix timestamp for T cells, and 0 for C or null cells (with ok=false).
func (c Cell) Number() (float64, bool) {
	if c.Null {
		return 0, false
	}
	switch c.Kind {
	case Quantitative:
		return c.Num, true
	case Temporal:
		return float64(c.Time.Unix()), true
	}
	return 0, false
}

// Compare orders two cells: numerically when both have numeric
// interpretations, lexicographically otherwise. Nulls sort first.
func (c Cell) Compare(other Cell) int {
	if c.Null || other.Null {
		switch {
		case c.Null && other.Null:
			return 0
		case c.Null:
			return -1
		default:
			return 1
		}
	}
	a, aok := c.Number()
	b, bok := other.Number()
	if aok && bok {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(c.String(), other.String())
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Table is an in-memory relation.
type Table struct {
	Name    string
	Columns []Column
	Rows    [][]Cell
}

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the named column definition.
func (t *Table) Column(name string) (Column, bool) {
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Columns[i], true
	}
	return Column{}, false
}

// ColumnValues returns every value of the named column.
func (t *Table) ColumnValues(name string) []Cell {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	out := make([]Cell, len(t.Rows))
	for r, row := range t.Rows {
		out[r] = row[i]
	}
	return out
}

// ForeignKey links a column of one table to a column of another; the
// executor joins tables along these edges (Spider-style implicit joins).
type ForeignKey struct {
	FromTable  string
	FromColumn string
	ToTable    string
	ToColumn   string
}

// Database is a named collection of tables with foreign keys and a domain
// label (Sport, College, ... — the nvBench coverage dimension).
type Database struct {
	Name        string
	Domain      string
	Tables      []*Table
	ForeignKeys []ForeignKey
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	for _, t := range d.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// AddTable appends a table, replacing any previous table of the same name.
func (d *Database) AddTable(t *Table) {
	for i, existing := range d.Tables {
		if existing.Name == t.Name {
			d.Tables[i] = t
			return
		}
	}
	d.Tables = append(d.Tables, t)
}

// ColumnType resolves the type of table.column, defaulting to Categorical
// for unknown columns ("*" resolves to Quantitative since it only appears
// under COUNT).
func (d *Database) ColumnType(table, column string) ColType {
	if column == "*" {
		return Quantitative
	}
	t := d.Table(table)
	if t == nil {
		return Categorical
	}
	if c, ok := t.Column(column); ok {
		return c.Type
	}
	return Categorical
}

// Stats aggregates simple corpus-level statistics for Table 2.
type Stats struct {
	Tables      int
	Columns     int
	Rows        int
	MaxColumns  int
	MinColumns  int
	MaxRows     int
	MinRows     int
	TypeCounts  map[ColType]int
	TablesByCol map[int]int // #columns -> #tables (Figure 8a)
}

// ComputeStats scans a set of databases and accumulates Table 2 numbers.
func ComputeStats(dbs []*Database) Stats {
	st := Stats{
		MinColumns:  math.MaxInt32,
		MinRows:     math.MaxInt32,
		TypeCounts:  map[ColType]int{},
		TablesByCol: map[int]int{},
	}
	for _, db := range dbs {
		for _, t := range db.Tables {
			st.Tables++
			nc, nr := len(t.Columns), len(t.Rows)
			st.Columns += nc
			st.Rows += nr
			if nc > st.MaxColumns {
				st.MaxColumns = nc
			}
			if nc < st.MinColumns {
				st.MinColumns = nc
			}
			if nr > st.MaxRows {
				st.MaxRows = nr
			}
			if nr < st.MinRows {
				st.MinRows = nr
			}
			st.TablesByCol[nc]++
			for _, c := range t.Columns {
				st.TypeCounts[c.Type]++
			}
		}
	}
	if st.Tables == 0 {
		st.MinColumns, st.MinRows = 0, 0
	}
	return st
}

// Domains returns the sorted set of distinct domains across databases.
func Domains(dbs []*Database) []string {
	set := map[string]bool{}
	for _, db := range dbs {
		set[db.Domain] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TablesPerDomain counts tables by domain (the Top-5 Domains row of
// Table 2).
func TablesPerDomain(dbs []*Database) map[string]int {
	out := map[string]int{}
	for _, db := range dbs {
		out[db.Domain] += len(db.Tables)
	}
	return out
}
