// The one-pass decoders for the two artifact kinds Load reads in bulk:
// database payloads and entry records. Each walks the canonical bytes
// once, in the member order encodeDatabase and encodeEntry write, and
// builds the decoded value directly. A scanner never reports an error:
// anything outside that shape — an unknown, repeated or differently
// spelled key, a null, a wrong type, a number that does not fit, invalid
// UTF-8, trailing bytes, a bad cell or column type — makes it give up,
// and decodeDatabase and decodeEntryRecord then run the strict decoder,
// which is the one source of accept/reject decisions and error texts. So
// a scan that succeeds must yield exactly what the strict decoder yields
// for the same bytes (FuzzDecodeDatabase and FuzzDecodeEntry check it).

package store

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
	"unicode/utf8"

	"nvbench/internal/dataset"
)

// scanner reads JSON from b at offset i. Once bad is set every read
// returns a zero value and consumes nothing, so callers check it once at
// the end instead of after each read.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// at reports whether the next non-space byte is c, without consuming it.
func (s *scanner) at(c byte) bool {
	s.ws()
	return !s.bad && s.i < len(s.b) && s.b[s.i] == c
}

// expect consumes the byte c, the next non-space byte.
func (s *scanner) expect(c byte) {
	if s.at(c) {
		s.i++
		return
	}
	s.bad = true
}

// done reports whether the whole input was one value and whitespace.
func (s *scanner) done() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// members walks an object's members, which must come in the order the
// caller asks for them; n counts those read so far.
type members struct {
	s *scanner
	n int
}

func (s *scanner) object() members {
	s.expect('{')
	return members{s: s}
}

// next reports whether the next member is name and, if so, consumes its
// key and colon. Otherwise it consumes nothing, so the caller can try the
// next optional member or end the object.
func (m *members) next(name string) bool {
	s := m.s
	if s.bad {
		return false
	}
	start := s.i
	if m.n > 0 {
		if !s.at(',') {
			return false
		}
		s.i++
	}
	s.ws()
	end := s.i + len(name) + 2
	if end > len(s.b) || s.b[s.i] != '"' || string(s.b[s.i+1:end-1]) != name || s.b[end-1] != '"' {
		s.i = start
		return false
	}
	s.i = end
	s.expect(':')
	m.n++
	return true
}

// need consumes the key and colon of a member that must come next.
func (m *members) need(name string) {
	if !m.next(name) {
		m.s.bad = true
	}
}

func (m *members) end() { m.s.expect('}') }

// more reports whether the array whose '[' has been consumed has another
// element, consuming the comma before each element after the first and
// the closing ']' after the last.
func (s *scanner) more(first bool) bool {
	s.ws()
	if s.bad || s.i >= len(s.b) {
		s.bad = true
		return false
	}
	switch c := s.b[s.i]; {
	case c == ']':
		s.i++
		return false
	case first:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.bad = true
	return false
}

// strBytes returns the next string value's raw bytes between its quotes
// and whether they hold an escape. Unescaped bytes are checked here:
// control characters are invalid JSON and invalid UTF-8 would be replaced
// by U+FFFD, so both give up.
func (s *scanner) strBytes() (raw []byte, escaped bool) {
	if !s.at('"') {
		s.bad = true
		return nil, false
	}
	start, ascii := s.i+1, true
	for j := start; j < len(s.b); j++ {
		c := s.b[j]
		if c == '"' {
			if escaped || ascii || utf8.Valid(s.b[start:j]) {
				s.i = j + 1
				return s.b[start:j], escaped
			}
			break
		}
		if c < 0x20 {
			break
		}
		if c == '\\' {
			escaped = true
			j++ // the escaped byte cannot end the string
		} else if c >= 0x80 {
			ascii = false
		}
	}
	s.bad = true
	return nil, false
}

// str returns the next string value, copied out of the input.
func (s *scanner) str() string {
	raw, escaped := s.strBytes()
	if escaped {
		return s.unquote(raw)
	}
	return string(raw)
}

// unquote decodes the string token just read, whose contents are raw, with
// encoding/json on that token alone, so that an escape decodes exactly as
// the strict decoder decodes it.
func (s *scanner) unquote(raw []byte) string {
	var v string
	if json.Unmarshal(s.b[s.i-len(raw)-2:s.i], &v) != nil {
		s.bad = true
	}
	return v
}

// number returns the next number's bytes, checked against the JSON
// number grammar: strconv accepts forms JSON does not ("0x1p3", "inf",
// "1_0", "+1", "01").
func (s *scanner) number() []byte {
	s.ws()
	if s.bad {
		return nil
	}
	b, j := s.b, s.i
	digits := func() int {
		k := j
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j - k
	}
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case digits() == 0:
		s.bad = true
		return nil
	}
	if j < len(b) && b[j] == '.' {
		j++
		if digits() == 0 {
			s.bad = true
			return nil
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if digits() == 0 {
			s.bad = true
			return nil
		}
	}
	tok := b[s.i:j]
	s.i = j
	return tok
}

// int reads a number that must be an integer of at most 18 digits, so
// that it cannot overflow; longer ones give up.
func (s *scanner) int() int {
	tok := s.number()
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) == 0 || len(tok) > 18 {
		s.bad = true
		return 0
	}
	n := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			s.bad = true
			return 0
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n
}

// float reads a number as encoding/json does; one out of float64's range
// gives up.
func (s *scanner) float() float64 {
	tok := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

func (s *scanner) bool() bool {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case s.bad:
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false
	}
	s.bad = true
	return false
}

func (s *scanner) strings() []string {
	s.expect('[')
	out := []string{}
	for first := true; s.more(first); first = false {
		out = append(out, s.str())
	}
	return out
}

// ---- entry records ----

// scanEntryRecord decodes entry-record bytes in encodeEntry's shape.
func scanEntryRecord(data []byte) (*entryRecord, bool) {
	s := &scanner{b: data}
	rec := &entryRecord{}
	m := s.object()
	m.need("id")
	rec.ID = s.int()
	m.need("pair_id")
	rec.PairID = s.int()
	m.need("db")
	rec.DB = s.str()
	m.need("source_nl")
	rec.SourceNL = s.str()
	m.need("vis")
	rec.Vis = s.str()
	m.need("chart")
	rec.Chart = s.str()
	m.need("hardness")
	rec.Hardness = s.str()
	if m.next("manual") {
		rec.Manual = s.bool()
	}
	m.need("nls")
	rec.NLs = s.strings()
	if m.next("edit") {
		s.expect('[')
		rec.Edit = []editOpRecord{}
		for first := true; s.more(first); first = false {
			rec.Edit = append(rec.Edit, s.editOp())
		}
	}
	m.end()
	if !s.done() {
		return nil, false
	}
	return rec, true
}

func (s *scanner) editOp() editOpRecord {
	var op editOpRecord
	m := s.object()
	m.need("kind")
	op.Kind = s.str()
	if m.next("attr") {
		a := s.attr()
		op.Attr = &a
	}
	if m.next("group") {
		g := &groupRecord{}
		gm := s.object()
		gm.need("kind")
		g.Kind = s.str()
		gm.need("attr")
		g.Attr = s.attr()
		if gm.next("bin") {
			g.Bin = s.str()
		}
		if gm.next("num_bins") {
			g.NumBins = s.int()
		}
		gm.end()
		op.Group = g
	}
	if m.next("chart") {
		op.Chart = s.str()
	}
	if m.next("order") {
		o := &orderRecord{}
		om := s.object()
		om.need("dir")
		o.Dir = s.str()
		om.need("attr")
		o.Attr = s.attr()
		om.end()
		op.Order = o
	}
	m.end()
	return op
}

func (s *scanner) attr() attrRecord {
	var a attrRecord
	m := s.object()
	if m.next("agg") {
		a.Agg = s.str()
	}
	m.need("column")
	a.Column = s.str()
	if m.next("table") {
		a.Table = s.str()
	}
	if m.next("distinct") {
		a.Distinct = s.bool()
	}
	m.end()
	return a
}

// ---- database payloads ----

// scanDatabase decodes a database payload in encodeDatabase's shape.
// Each table's cells go into one slab of exactly their number, which its
// rows slice with full slice expressions, so an append to a loaded row
// cannot write into the next; cells is scratch reused across tables.
func scanDatabase(data []byte) (*dataset.Database, bool) {
	s := &scanner{b: data}
	db := &dataset.Database{}
	m := s.object()
	m.need("name")
	db.Name = s.str()
	m.need("domain")
	db.Domain = s.str()
	m.need("tables")
	s.expect('[')
	db.Tables = []*dataset.Table{}
	var cells []dataset.Cell
	for first := true; s.more(first); first = false {
		var t *dataset.Table
		t, cells = s.table(cells[:0])
		db.Tables = append(db.Tables, t)
	}
	if m.next("foreign_keys") {
		s.expect('[')
		for first := true; s.more(first); first = false {
			var fk dataset.ForeignKey
			fm := s.object()
			fm.need("from_table")
			fk.FromTable = s.str()
			fm.need("from_column")
			fk.FromColumn = s.str()
			fm.need("to_table")
			fk.ToTable = s.str()
			fm.need("to_column")
			fk.ToColumn = s.str()
			fm.end()
			db.ForeignKeys = append(db.ForeignKeys, fk)
		}
	}
	m.end()
	if !s.done() {
		return nil, false
	}
	return db, true
}

// table reads one table, appending its cells to cells and returning the
// grown scratch slice for the next table.
func (s *scanner) table(cells []dataset.Cell) (*dataset.Table, []dataset.Cell) {
	t := &dataset.Table{Columns: []dataset.Column{}}
	m := s.object()
	m.need("name")
	t.Name = s.str()
	m.need("columns")
	s.expect('[')
	for first := true; s.more(first); first = false {
		var col dataset.Column
		cm := s.object()
		cm.need("name")
		col.Name = s.str()
		cm.need("type")
		col.Type = s.kind()
		cm.end()
		t.Columns = append(t.Columns, col)
	}
	m.need("rows")
	s.expect('[')
	width, rows := len(t.Columns), 0
	for first := true; s.more(first); first = false {
		s.expect('[')
		n := 0
		for first := true; s.more(first); first = false {
			cells = append(cells, s.cell())
			n++
		}
		if n != width {
			s.bad = true
		}
		rows++
	}
	m.end()
	if s.bad {
		return t, cells
	}
	slab := make([]dataset.Cell, len(cells))
	copy(slab, cells)
	t.Rows = make([][]dataset.Cell, rows)
	for r := range t.Rows {
		t.Rows[r] = slab[r*width : (r+1)*width : (r+1)*width]
	}
	return t, cells
}

// kind reads a one-letter column type code, "C", "T" or "Q".
func (s *scanner) kind() dataset.ColType {
	s.ws()
	if b := s.b[s.i:]; !s.bad && len(b) >= 3 && b[0] == '"' && b[2] == '"' {
		s.i += 3
		switch b[1] {
		case 'C':
			return dataset.Categorical
		case 'T':
			return dataset.Temporal
		case 'Q':
			return dataset.Quantitative
		}
	}
	s.bad = true
	return 0
}

// cell reads one [kind] or [kind, value] cell, as cellRecord does.
func (s *scanner) cell() dataset.Cell {
	s.expect('[')
	c := dataset.Cell{Kind: s.kind()}
	if s.at(']') {
		s.i++
		c.Null = true
		return c
	}
	s.expect(',')
	switch c.Kind {
	case dataset.Categorical:
		c.Str = s.str()
	case dataset.Quantitative:
		c.Num = s.float()
	case dataset.Temporal:
		c.Time = s.time()
	}
	s.expect(']')
	return c
}

func (s *scanner) time() time.Time {
	raw, escaped := s.strBytes()
	var t time.Time
	var err error
	switch {
	case s.bad:
		return t
	case escaped:
		t, err = time.Parse(time.RFC3339Nano, s.unquote(raw))
	default:
		t, err = time.Parse(time.RFC3339Nano, string(raw))
	}
	if err != nil {
		s.bad = true
	}
	return t.UTC()
}
