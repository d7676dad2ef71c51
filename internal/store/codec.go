// The artifact codecs. Entry records serialize the vis AST in its
// canonical token form (ast.Tokens is fully invertible) and the edit
// script, hardness and chart type as their canonical names; database
// payloads serialize cells as compact [kind, value] arrays with RFC 3339
// timestamps. Both directions are strict: unknown fields, name/structure
// mismatches and inconsistent derived fields (a stored chart that is not
// the vis tree's Visualize node) are decode errors, because in a
// content-addressed store a record that does not round-trip exactly is
// corruption, not input to be repaired.

package store

import (
	"encoding/json"
	"fmt"
	"time"

	"nvbench/internal/ast"
	"nvbench/internal/bench"
	"nvbench/internal/core"
	"nvbench/internal/dataset"
)

// ---- entry records ----

// entryRecord is the on-disk shape of one benchmark entry.
type entryRecord struct {
	ID       int            `json:"id"`
	PairID   int            `json:"pair_id"`
	DB       string         `json:"db"`
	SourceNL string         `json:"source_nl"`
	Vis      string         `json:"vis"`
	Chart    string         `json:"chart"`
	Hardness string         `json:"hardness"`
	Manual   bool           `json:"manual,omitempty"`
	NLs      []string       `json:"nls"`
	Edit     []editOpRecord `json:"edit,omitempty"`
}

// editOpRecord is one edit-script operation; payload fields are present
// only when the op kind uses them.
type editOpRecord struct {
	Kind  string       `json:"kind"`
	Attr  *attrRecord  `json:"attr,omitempty"`
	Group *groupRecord `json:"group,omitempty"`
	Chart string       `json:"chart,omitempty"`
	Order *orderRecord `json:"order,omitempty"`
}

type attrRecord struct {
	Agg      string `json:"agg,omitempty"`
	Column   string `json:"column"`
	Table    string `json:"table,omitempty"`
	Distinct bool   `json:"distinct,omitempty"`
}

type groupRecord struct {
	Kind    string     `json:"kind"`
	Attr    attrRecord `json:"attr"`
	Bin     string     `json:"bin,omitempty"`
	NumBins int        `json:"num_bins,omitempty"`
}

type orderRecord struct {
	Dir  string     `json:"dir"`
	Attr attrRecord `json:"attr"`
}

// encodeEntry serializes one entry to its canonical bytes. dbHash is the
// content address of the entry's database payload.
func encodeEntry(e *bench.Entry, dbHash string) ([]byte, error) {
	rec := entryRecord{
		ID:       e.ID,
		PairID:   e.PairID,
		DB:       dbHash,
		SourceNL: e.SourceNL,
		Vis:      e.Vis.String(),
		Chart:    e.Chart.String(),
		Hardness: e.Hardness.String(),
		Manual:   e.Manual,
		NLs:      e.NLs,
	}
	for _, op := range e.Edit.Ops {
		rec.Edit = append(rec.Edit, encodeEditOp(op))
	}
	return canonicalJSON(rec)
}

// decodeEntryRecord parses entry-record bytes without resolving the
// database reference; Load resolves it and calls toEntry. The one-pass
// scan handles canonical bytes; anything it gives up on is decoded, and
// accepted or rejected, by decodeStrict.
func decodeEntryRecord(data []byte) (*entryRecord, error) {
	if rec, ok := scanEntryRecord(data); ok {
		return rec, nil
	}
	var rec entryRecord
	if err := decodeStrict(data, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// toEntry rebuilds the in-memory entry against its (already loaded)
// database.
func (rec *entryRecord) toEntry(db *dataset.Database) (*bench.Entry, error) {
	vis, err := ast.ParseString(rec.Vis)
	if err != nil {
		return nil, fmt.Errorf("vis query: %w", err)
	}
	chart, err := ast.ParseChartType(rec.Chart)
	if err != nil {
		return nil, err
	}
	if chart != vis.Visualize {
		return nil, fmt.Errorf("chart %q does not match vis tree's %q", rec.Chart, vis.Visualize)
	}
	hardness, err := parseHardness(rec.Hardness)
	if err != nil {
		return nil, err
	}
	e := &bench.Entry{
		ID:       rec.ID,
		PairID:   rec.PairID,
		DB:       db,
		SourceNL: rec.SourceNL,
		Vis:      vis,
		NLs:      rec.NLs,
		Manual:   rec.Manual,
		Hardness: hardness,
		Chart:    chart,
	}
	for _, opRec := range rec.Edit {
		op, err := decodeEditOp(opRec)
		if err != nil {
			return nil, err
		}
		e.Edit.Ops = append(e.Edit.Ops, op)
	}
	return e, nil
}

func encodeEditOp(op core.EditOp) editOpRecord {
	rec := editOpRecord{Kind: op.Kind.String()}
	if op.Attr != (ast.Attr{}) {
		a := encodeAttr(op.Attr)
		rec.Attr = &a
	}
	if op.Group != nil {
		rec.Group = &groupRecord{
			Kind:    op.Group.Kind.String(),
			Attr:    encodeAttr(op.Group.Attr),
			NumBins: op.Group.NumBins,
		}
		if op.Group.Bin != ast.BinNone {
			rec.Group.Bin = op.Group.Bin.String()
		}
	}
	if op.Chart != ast.ChartNone {
		rec.Chart = op.Chart.String()
	}
	if op.Order != nil {
		rec.Order = &orderRecord{Dir: op.Order.Dir.String(), Attr: encodeAttr(op.Order.Attr)}
	}
	return rec
}

func decodeEditOp(rec editOpRecord) (core.EditOp, error) {
	kind, err := parseEditKind(rec.Kind)
	if err != nil {
		return core.EditOp{}, err
	}
	op := core.EditOp{Kind: kind}
	if rec.Attr != nil {
		if op.Attr, err = decodeAttr(*rec.Attr); err != nil {
			return core.EditOp{}, err
		}
	}
	if rec.Group != nil {
		g := &ast.Group{NumBins: rec.Group.NumBins}
		switch rec.Group.Kind {
		case "grouping":
			g.Kind = ast.Grouping
		case "binning":
			g.Kind = ast.Binning
		default:
			return core.EditOp{}, fmt.Errorf("store: unknown group kind %q", rec.Group.Kind)
		}
		if g.Attr, err = decodeAttr(rec.Group.Attr); err != nil {
			return core.EditOp{}, err
		}
		if g.Bin, err = ast.ParseBinUnit(rec.Group.Bin); err != nil {
			return core.EditOp{}, err
		}
		op.Group = g
	}
	if op.Chart, err = ast.ParseChartType(rec.Chart); err != nil {
		return core.EditOp{}, err
	}
	if rec.Order != nil {
		o := &ast.Order{}
		switch rec.Order.Dir {
		case "asc":
			o.Dir = ast.Asc
		case "desc":
			o.Dir = ast.Desc
		default:
			return core.EditOp{}, fmt.Errorf("store: unknown order direction %q", rec.Order.Dir)
		}
		if o.Attr, err = decodeAttr(rec.Order.Attr); err != nil {
			return core.EditOp{}, err
		}
		op.Order = o
	}
	return op, nil
}

func encodeAttr(a ast.Attr) attrRecord {
	rec := attrRecord{Column: a.Column, Table: a.Table, Distinct: a.Distinct}
	if a.Agg != ast.AggNone {
		rec.Agg = a.Agg.String()
	}
	return rec
}

func decodeAttr(rec attrRecord) (ast.Attr, error) {
	agg, err := ast.ParseAggFunc(rec.Agg)
	if err != nil {
		return ast.Attr{}, err
	}
	return ast.Attr{Agg: agg, Column: rec.Column, Table: rec.Table, Distinct: rec.Distinct}, nil
}

// parseHardness inverts ast.Hardness.String.
func parseHardness(s string) (ast.Hardness, error) {
	for _, h := range ast.AllHardness {
		if h.String() == s {
			return h, nil
		}
	}
	return 0, fmt.Errorf("store: unknown hardness %q", s)
}

// editKinds enumerates every core.EditKind; parseEditKind inverts String.
var editKinds = []core.EditKind{
	core.DeleteSelect, core.DeleteOrder, core.InsertGroup, core.InsertBin,
	core.InsertAgg, core.InsertVisualize, core.InsertOrder,
}

func parseEditKind(s string) (core.EditKind, error) {
	for _, k := range editKinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("store: unknown edit kind %q", s)
}

// ---- database payloads ----

type dbRecord struct {
	Name        string        `json:"name"`
	Domain      string        `json:"domain"`
	Tables      []tableRecord `json:"tables"`
	ForeignKeys []fkRecord    `json:"foreign_keys,omitempty"`
}

type tableRecord struct {
	Name    string         `json:"name"`
	Columns []columnRecord `json:"columns"`
	Rows    [][]cellRecord `json:"rows"`
}

type columnRecord struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type fkRecord struct {
	FromTable  string `json:"from_table"`
	FromColumn string `json:"from_column"`
	ToTable    string `json:"to_table"`
	ToColumn   string `json:"to_column"`
}

// cellRecord wraps one cell with a compact JSON form: a [kind] array for
// nulls, [kind, value] otherwise, with temporal values as RFC 3339.
type cellRecord struct {
	cell dataset.Cell
}

func colTypeCode(t dataset.ColType) (string, error) {
	switch t {
	case dataset.Categorical, dataset.Temporal, dataset.Quantitative:
		return t.String(), nil
	}
	return "", fmt.Errorf("store: unencodable column type %d", int(t))
}

func parseColType(code string) (dataset.ColType, error) {
	switch code {
	case "C":
		return dataset.Categorical, nil
	case "T":
		return dataset.Temporal, nil
	case "Q":
		return dataset.Quantitative, nil
	}
	return 0, fmt.Errorf("store: unknown column type %q", code)
}

func (c cellRecord) MarshalJSON() ([]byte, error) {
	code, err := colTypeCode(c.cell.Kind)
	if err != nil {
		return nil, err
	}
	if c.cell.Null {
		return json.Marshal([]any{code})
	}
	switch c.cell.Kind {
	case dataset.Categorical:
		return json.Marshal([]any{code, c.cell.Str})
	case dataset.Quantitative:
		return json.Marshal([]any{code, c.cell.Num})
	default: // Temporal
		return json.Marshal([]any{code, c.cell.Time.UTC().Format(time.RFC3339Nano)})
	}
}

func (c *cellRecord) UnmarshalJSON(data []byte) error {
	var parts []json.RawMessage
	if err := json.Unmarshal(data, &parts); err != nil {
		return err
	}
	if len(parts) < 1 || len(parts) > 2 {
		return fmt.Errorf("store: cell must be [kind] or [kind, value]")
	}
	var code string
	if err := json.Unmarshal(parts[0], &code); err != nil {
		return err
	}
	kind, err := parseColType(code)
	if err != nil {
		return err
	}
	c.cell = dataset.Cell{Kind: kind}
	if len(parts) == 1 {
		c.cell.Null = true
		return nil
	}
	switch kind {
	case dataset.Categorical:
		return json.Unmarshal(parts[1], &c.cell.Str)
	case dataset.Quantitative:
		return json.Unmarshal(parts[1], &c.cell.Num)
	default: // Temporal
		var s string
		if err := json.Unmarshal(parts[1], &s); err != nil {
			return err
		}
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return err
		}
		c.cell.Time = t.UTC()
		return nil
	}
}

// encodeDatabase serializes one database payload to canonical bytes.
func encodeDatabase(db *dataset.Database) ([]byte, error) {
	rec := dbRecord{Name: db.Name, Domain: db.Domain, Tables: make([]tableRecord, 0, len(db.Tables))}
	for _, t := range db.Tables {
		tr := tableRecord{Name: t.Name, Columns: make([]columnRecord, 0, len(t.Columns)), Rows: make([][]cellRecord, 0, len(t.Rows))}
		for _, col := range t.Columns {
			code, err := colTypeCode(col.Type)
			if err != nil {
				return nil, fmt.Errorf("store: table %s column %s: %w", t.Name, col.Name, err)
			}
			tr.Columns = append(tr.Columns, columnRecord{Name: col.Name, Type: code})
		}
		for _, row := range t.Rows {
			cells := make([]cellRecord, len(row))
			for i, cell := range row {
				cells[i] = cellRecord{cell: cell}
			}
			tr.Rows = append(tr.Rows, cells)
		}
		rec.Tables = append(rec.Tables, tr)
	}
	for _, fk := range db.ForeignKeys {
		rec.ForeignKeys = append(rec.ForeignKeys, fkRecord(fk))
	}
	return canonicalJSON(rec)
}

// decodeDatabase inverts encodeDatabase: by the one-pass scan for
// canonical bytes, and by decodeDatabaseStrict for anything it gives up
// on, which accepts or rejects the payload.
func decodeDatabase(data []byte) (*dataset.Database, error) {
	if db, ok := scanDatabase(data); ok {
		return db, nil
	}
	return decodeDatabaseStrict(data)
}

// decodeDatabaseStrict decodes a payload with decodeStrict and the
// cellRecord codec, then checks column types and row widths.
func decodeDatabaseStrict(data []byte) (*dataset.Database, error) {
	var rec dbRecord
	if err := decodeStrict(data, &rec); err != nil {
		return nil, err
	}
	db := &dataset.Database{Name: rec.Name, Domain: rec.Domain, Tables: make([]*dataset.Table, 0, len(rec.Tables))}
	for _, tr := range rec.Tables {
		t := &dataset.Table{Name: tr.Name, Columns: make([]dataset.Column, 0, len(tr.Columns)), Rows: make([][]dataset.Cell, 0, len(tr.Rows))}
		for _, cr := range tr.Columns {
			ct, err := parseColType(cr.Type)
			if err != nil {
				return nil, fmt.Errorf("store: table %s column %s: %w", tr.Name, cr.Name, err)
			}
			t.Columns = append(t.Columns, dataset.Column{Name: cr.Name, Type: ct})
		}
		for ri, row := range tr.Rows {
			if len(row) != len(t.Columns) {
				return nil, fmt.Errorf("store: table %s row %d has %d cells, want %d", tr.Name, ri, len(row), len(t.Columns))
			}
			cells := make([]dataset.Cell, len(row))
			for i, cr := range row {
				cells[i] = cr.cell
			}
			t.Rows = append(t.Rows, cells)
		}
		db.Tables = append(db.Tables, t)
	}
	for _, fk := range rec.ForeignKeys {
		db.ForeignKeys = append(db.ForeignKeys, dataset.ForeignKey(fk))
	}
	return db, nil
}
