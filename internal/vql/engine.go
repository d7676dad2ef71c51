package vql

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"nvbench/internal/bench"
)

// colType is the static type of a table column.
type colType int

const (
	colNum colType = iota
	colStr
	colBool
)

func (t colType) String() string {
	switch t {
	case colNum:
		return "number"
	case colStr:
		return "string"
	default:
		return "bool"
	}
}

// column is one typed column of a table.
type column struct {
	name string
	typ  colType
}

// table is an immutable in-memory relation: a schema plus rows of
// Values, one slice per row, positionally aligned with the schema.
type table struct {
	name   string
	cols   []column
	colIdx map[string]int
	rows   [][]Value
}

func newTable(name string, cols []column) *table {
	t := &table{name: name, cols: cols, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		t.colIdx[c.name] = i
	}
	return t
}

// Index answers equality lookups for one indexed column of the entries
// table, returning the content hashes of the matching entries. The
// store's secondary indexes, built over the loaded entries, implement
// it; Lookup with an unknown key returns nil.
type Index interface {
	Lookup(key string) []string
}

// Engine executes VQL queries over a loaded benchmark. It is built
// once per benchmark and is safe for concurrent Query calls: tables
// are immutable once built, and SetIndexes must be called (if at all)
// before the engine starts serving queries.
type Engine struct {
	b       *bench.Benchmark // read again only to build stats
	entries *table
	// stats is built by the first query that reads it (see table):
	// Table 3 is the costliest part of an engine, and most engines never
	// query it.
	stats     *table
	statsOnce sync.Once
	hashRow   map[string]int   // entry content hash → entries row
	indexes   map[string]Index // entries column → index
}

// entriesSchema is the entries table: one row per benchmark entry.
var entriesSchema = []column{
	{"id", colNum},
	{"pair_id", colNum},
	{"db", colStr},
	{"domain", colStr},
	{"hardness", colStr},
	{"chart", colStr},
	{"manual", colBool},
	{"nl", colStr},
	{"nl_count", colNum},
	{"source_nl", colStr},
	{"vql", colStr},
	{"tokens", colNum},
}

// statsSchema is the stats table: the paper's Table 3, one row per
// chart type.
var statsSchema = []column{
	{"chart", colStr},
	{"num_vis", colNum},
	{"num_pairs", colNum},
	{"pairs_per", colNum},
	{"avg_words", colNum},
	{"max_words", colNum},
	{"min_words", colNum},
	{"avg_bleu", colNum},
}

// NewEngine builds the query tables from a loaded benchmark. Row order
// follows b.Entries (entry-ID order), so results are deterministic for
// a given store. The stats table is computed from b on its first query,
// so b must not change after the call.
func NewEngine(b *bench.Benchmark) *Engine {
	entries := newTable("entries", entriesSchema)
	entries.rows = make([][]Value, 0, len(b.Entries))
	for _, e := range b.Entries {
		nl := ""
		if len(e.NLs) > 0 {
			nl = e.NLs[0]
		}
		// Vis.String() is its tokens joined by spaces: render the tree once.
		toks := e.Vis.Tokens()
		entries.rows = append(entries.rows, []Value{
			Number(float64(e.ID)),
			Number(float64(e.PairID)),
			StringVal(e.DB.Name),
			StringVal(e.DB.Domain),
			StringVal(e.Hardness.String()),
			StringVal(e.Chart.String()),
			BoolVal(e.Manual),
			StringVal(nl),
			Number(float64(len(e.NLs))),
			StringVal(e.SourceNL),
			StringVal(strings.Join(toks, " ")),
			Number(float64(len(toks))),
		})
	}
	return &Engine{b: b, entries: entries}
}

// table resolves a FROM name to its table, building the stats table
// once, on the first query that names it.
func (e *Engine) table(name string) (*table, bool) {
	switch name {
	case "entries":
		return e.entries, true
	case "stats":
		e.statsOnce.Do(func() {
			e.stats = newTable("stats", statsSchema)
			for _, st := range e.b.Table3() {
				e.stats.rows = append(e.stats.rows, []Value{
					StringVal(st.Chart.String()),
					Number(float64(st.NumVis)),
					Number(float64(st.NumPairs)),
					Number(st.PairsPer),
					Number(st.AvgWords),
					Number(float64(st.MaxWords)),
					Number(float64(st.MinWords)),
					Number(st.AvgBLEU),
				})
			}
		})
		return e.stats, true
	}
	return nil, false
}

// SetIndexes attaches secondary indexes to the entries table.
// entryHashes are the content hashes of the entries, positionally
// aligned with the benchmark's entry slice (the store manifest's
// EntryHashes order); index postings resolve through them to row
// numbers. Posting hashes with no matching row are skipped, so an
// index built over a full store still works for a partially loaded
// benchmark. Call before serving queries; not safe to call
// concurrently with Query.
func (e *Engine) SetIndexes(entryHashes []string, indexes map[string]Index) error {
	entries := e.entries
	if len(entryHashes) != len(entries.rows) {
		return fmt.Errorf("vql: %d entry hashes for %d entries", len(entryHashes), len(entries.rows))
	}
	hashRow := make(map[string]int, len(entryHashes))
	for i, h := range entryHashes {
		hashRow[h] = i
	}
	e.hashRow = hashRow
	e.indexes = make(map[string]Index, len(indexes))
	for field, ix := range indexes {
		if _, ok := entries.colIdx[field]; !ok || ix == nil {
			continue
		}
		e.indexes[field] = ix
	}
	return nil
}

// IndexedFields lists the entries columns that have an attached index,
// sorted.
func (e *Engine) IndexedFields() []string {
	fields := make([]string, 0, len(e.indexes))
	for f := range e.indexes {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}

// Query parses, plans, and executes one statement.
func (e *Engine) Query(src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(p)
}

// PlanText parses and plans a query without executing it, returning the
// rendering Explain produces — the CLI's -explain mode.
func (e *Engine) PlanText(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	p, err := e.Plan(q)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}
