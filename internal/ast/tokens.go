package ast

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The canonical token form linearizes a query tree into the flat sequence
// the seq2vis decoder emits (Figure 15 of the paper shows the format:
// "Visualize pie Select ..."). The sequence is fully invertible: ParseTokens
// reconstructs the identical tree, which Tokens then reproduces.
//
// Token grammar:
//
//	query   := [ "visualize" ctype ] body
//	body    := setop core core | core
//	core    := "select" attr+ "from" table+
//	           [ "group" group+ ]
//	           [ "order" dir attr | "superlative" kind k attr ]
//	           [ "filter" filter ]
//	attr    := [ agg ] [ "distinct" ] key
//	group   := "grouping" key | "binning" key unit [ nbins ]
//	filter  := ("and"|"or") filter filter
//	         | [ "having" ] op attr ( value... | "(" query ")" )
//
// Chart types use single tokens (stacked_bar, grouping_line,
// grouping_scatter). String values are double-quoted single tokens; the
// tokenizer keeps quoted regions intact.

// Section keywords that terminate variable-length lists. Table and column
// identifiers must not collide with these words (nor with the aggregate,
// direction and operator tokens) for the canonical form to stay invertible;
// ValidIdentifier checks the constraint.
var sectionKeywords = map[string]bool{
	"from": true, "group": true, "order": true, "superlative": true,
	"filter": true, "intersect": true, "union": true, "except": true,
	"(": true, ")": true, "visualize": true, "select": true,
}

func chartToken(c ChartType) string {
	return strings.ReplaceAll(c.String(), " ", "_")
}

// Tokens linearizes the query into its canonical token sequence.
func (q *Query) Tokens() []string { return q.appendTokens(nil) }

// String renders the canonical token sequence as a single space-joined line.
// 32 tokens hold all but 9 of the 2,331 seed-1 reference vis queries, so
// most renders never grow the slice.
func (q *Query) String() string {
	return strings.Join(q.appendTokens(make([]string, 0, 32)), " ")
}

// appendTokens appends the query's canonical tokens to out. Every node of
// the tree appends to the one slice instead of building a slice of its own.
func (q *Query) appendTokens(out []string) []string {
	if q == nil {
		return out
	}
	if q.Visualize != ChartNone {
		out = append(out, "visualize", chartToken(q.Visualize))
	}
	if q.SetOp != SetNone {
		out = append(out, q.SetOp.String())
		out = q.Left.appendTokens(out)
		return q.Right.appendTokens(out)
	}
	return q.Left.appendTokens(out)
}

func (c *Core) appendTokens(out []string) []string {
	if c == nil {
		return out
	}
	out = append(out, "select")
	for _, a := range c.Select {
		out = a.appendTokens(out)
	}
	out = append(out, "from")
	out = append(out, c.Tables...)
	if len(c.Groups) > 0 {
		out = append(out, "group")
		for _, g := range c.Groups {
			out = g.appendTokens(out)
		}
	}
	if c.Order != nil {
		out = append(out, "order", c.Order.Dir.String())
		out = c.Order.Attr.appendTokens(out)
	}
	if c.Superlative != nil {
		kind := "least"
		if c.Superlative.Most {
			kind = "most"
		}
		out = append(out, "superlative", kind, strconv.Itoa(c.Superlative.K))
		out = c.Superlative.Attr.appendTokens(out)
	}
	if c.Filter != nil {
		out = append(out, "filter")
		out = c.Filter.appendTokens(out)
	}
	return out
}

func (a Attr) appendTokens(out []string) []string {
	if a.Agg != AggNone {
		out = append(out, a.Agg.String())
	}
	if a.Distinct {
		out = append(out, "distinct")
	}
	return append(out, a.Key())
}

func (g Group) appendTokens(out []string) []string {
	if g.Kind != Binning {
		return append(out, "grouping", g.Attr.Key())
	}
	out = append(out, "binning", g.Attr.Key(), g.Bin.String())
	if g.Bin == BinNumeric {
		n := g.NumBins
		if n <= 0 {
			n = DefaultNumBins
		}
		out = append(out, strconv.Itoa(n))
	}
	return out
}

func (f *Filter) appendTokens(out []string) []string {
	if f == nil {
		return out
	}
	if f.Op.IsConnective() {
		out = append(out, f.Op.String())
		out = f.Left.appendTokens(out)
		return f.Right.appendTokens(out)
	}
	if f.Having {
		out = append(out, "having")
	}
	out = append(out, opToken(f.Op))
	out = f.Attr.appendTokens(out)
	if f.Sub != nil {
		out = append(out, "(")
		out = f.Sub.appendTokens(out)
		return append(out, ")")
	}
	for _, v := range f.Values {
		out = append(out, v.token())
	}
	return out
}

func opToken(op FilterOp) string {
	switch op {
	case FilterNotLike:
		return "not_like"
	case FilterNotIn:
		return "not_in"
	default:
		return op.String()
	}
}

func parseOpToken(tok string) (FilterOp, bool) {
	switch tok {
	case ">":
		return FilterGT, true
	case "<":
		return FilterLT, true
	case ">=":
		return FilterGE, true
	case "<=":
		return FilterLE, true
	case "!=":
		return FilterNE, true
	case "=":
		return FilterEQ, true
	case "between":
		return FilterBetween, true
	case "like":
		return FilterLike, true
	case "not_like":
		return FilterNotLike, true
	case "in":
		return FilterIn, true
	case "not_in":
		return FilterNotIn, true
	}
	return 0, false
}

func (v Value) token() string {
	if v.Kind == ValueNumber {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return strconv.Quote(v.Str)
}

// DefaultNumBins is the paper's default bin count for numeric binning
// (binSize = ceil((max-min)/#bins) with #bins = 10).
const DefaultNumBins = 10

// ValidIdentifier reports whether a bare table name is safe to use in the
// canonical token form: non-empty, no whitespace or dots, and not a
// reserved token of the grammar.
func ValidIdentifier(name string) bool {
	if name == "" || strings.ContainsAny(name, " \t.\"") {
		return false
	}
	if sectionKeywords[name] {
		return false
	}
	switch name {
	case "asc", "desc", "most", "least", "having", "and", "or",
		"distinct", "grouping", "binning", "none":
		return false
	}
	if _, err := ParseAggFunc(name); err == nil && name != "" {
		return false
	}
	if _, ok := parseOpToken(name); ok {
		return false
	}
	return true
}

// Tokenize splits a canonical query line into tokens, keeping double-quoted
// string values as single tokens.
func Tokenize(line string) []string {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' && j+1 < len(line) {
					j += 2
					continue
				}
				if line[j] == '"' {
					j++
					break
				}
				j++
			}
			out = append(out, line[i:j])
			i = j
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out
}

// ParseString parses a canonical query line into a tree.
func ParseString(line string) (*Query, error) {
	return ParseTokens(Tokenize(line))
}

// ParseTokens parses a canonical token sequence into a query tree.
func ParseTokens(tokens []string) (*Query, error) {
	p := &tokenParser{toks: tokens}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		trailing := []string{}
		if p.pos < len(p.toks) {
			trailing = p.toks[p.pos:]
		}
		return nil, fmt.Errorf("ast: trailing tokens at %d: %q", p.pos, trailing)
	}
	return q, nil
}

type tokenParser struct {
	toks []string
	pos  int
}

func (p *tokenParser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *tokenParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *tokenParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("ast: expected %q at %d, got %q", tok, p.pos-1, got)
	}
	return nil
}

func (p *tokenParser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.peek() == "visualize" {
		p.next()
		ct, err := ParseChartType(p.next())
		if err != nil {
			return nil, err
		}
		q.Visualize = ct
	}
	switch p.peek() {
	case "intersect", "union", "except":
		switch p.next() {
		case "intersect":
			q.SetOp = SetIntersect
		case "union":
			q.SetOp = SetUnion
		case "except":
			q.SetOp = SetExcept
		}
		left, err := p.parseCore()
		if err != nil {
			return nil, err
		}
		right, err := p.parseCore()
		if err != nil {
			return nil, err
		}
		q.Left, q.Right = left, right
	default:
		core, err := p.parseCore()
		if err != nil {
			return nil, err
		}
		q.Left = core
	}
	return q, nil
}

func (p *tokenParser) parseCore() (*Core, error) {
	if err := p.expect("select"); err != nil {
		return nil, err
	}
	c := &Core{}
	for p.pos < len(p.toks) && p.peek() != "from" {
		a, err := p.parseAttr()
		if err != nil {
			return nil, err
		}
		c.Select = append(c.Select, a)
	}
	if len(c.Select) == 0 {
		return nil, fmt.Errorf("ast: empty select list at %d", p.pos)
	}
	if err := p.expect("from"); err != nil {
		return nil, err
	}
	for p.pos < len(p.toks) && !sectionKeywords[p.peek()] {
		c.Tables = append(c.Tables, p.next())
	}
	if len(c.Tables) == 0 {
		return nil, fmt.Errorf("ast: empty table list at %d", p.pos)
	}
	for p.pos < len(p.toks) {
		switch p.peek() {
		case "group":
			p.next()
			for p.peek() == "grouping" || p.peek() == "binning" {
				g, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				c.Groups = append(c.Groups, g)
			}
			if len(c.Groups) == 0 {
				return nil, fmt.Errorf("ast: empty group list at %d", p.pos)
			}
		case "order":
			p.next()
			o := &Order{}
			switch p.next() {
			case "asc":
				o.Dir = Asc
			case "desc":
				o.Dir = Desc
			default:
				return nil, fmt.Errorf("ast: bad order direction at %d", p.pos-1)
			}
			a, err := p.parseAttr()
			if err != nil {
				return nil, err
			}
			o.Attr = a
			c.Order = o
		case "superlative":
			p.next()
			s := &Superlative{}
			switch p.next() {
			case "most":
				s.Most = true
			case "least":
				s.Most = false
			default:
				return nil, fmt.Errorf("ast: bad superlative kind at %d", p.pos-1)
			}
			k, err := strconv.Atoi(p.next())
			if err != nil {
				return nil, fmt.Errorf("ast: bad superlative k: %v", err)
			}
			s.K = k
			a, err := p.parseAttr()
			if err != nil {
				return nil, err
			}
			s.Attr = a
			c.Superlative = s
		case "filter":
			p.next()
			f, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			c.Filter = f
		default:
			return c, nil
		}
	}
	return c, nil
}

func (p *tokenParser) parseAttr() (Attr, error) {
	var a Attr
	if agg, err := ParseAggFunc(p.peek()); err == nil && p.peek() != "" && p.peek() != "none" {
		if agg != AggNone {
			a.Agg = agg
			p.next()
		}
	}
	if p.peek() == "distinct" {
		a.Distinct = true
		p.next()
	}
	var err error
	a.Table, a.Column, err = splitKey(p.next(), p.pos-1)
	return a, err
}

// splitKey splits an attribute key ("table.column" or "column") into its
// parts. Only the spelling Attr.Key renders is accepted: a key such as "."
// or ".c" would render differently, so its line would not be the
// canonical form of the tree it parses to.
func splitKey(key string, pos int) (table, column string, err error) {
	if idx := strings.IndexByte(key, '.'); idx >= 0 {
		table, column = key[:idx], key[idx+1:]
	} else {
		column = key
	}
	if key == "" {
		return "", "", fmt.Errorf("ast: missing attribute key at %d", pos)
	}
	if (Attr{Table: table, Column: column}).Key() != key {
		return "", "", fmt.Errorf("ast: bad attribute key %q at %d", key, pos)
	}
	return table, column, nil
}

func (p *tokenParser) parseGroup() (Group, error) {
	var g Group
	switch p.next() {
	case "grouping":
		g.Kind = Grouping
	case "binning":
		g.Kind = Binning
	default:
		return g, fmt.Errorf("ast: bad group kind at %d", p.pos-1)
	}
	var err error
	g.Attr.Table, g.Attr.Column, err = splitKey(p.next(), p.pos-1)
	if err != nil {
		return g, err
	}
	if g.Kind == Binning {
		unit, err := ParseBinUnit(p.next())
		if err != nil {
			return g, err
		}
		g.Bin = unit
		if unit == BinNumeric {
			n, err := strconv.Atoi(p.next())
			if err != nil {
				return g, fmt.Errorf("ast: bad bin count: %v", err)
			}
			if n <= 0 {
				// Tokens renders a non-positive count as DefaultNumBins.
				return g, fmt.Errorf("ast: bin count %d at %d must be positive", n, p.pos-1)
			}
			g.NumBins = n
		}
	}
	return g, nil
}

func (p *tokenParser) parseFilter() (*Filter, error) {
	switch p.peek() {
	case "and", "or":
		f := &Filter{}
		if p.next() == "and" {
			f.Op = FilterAnd
		} else {
			f.Op = FilterOr
		}
		left, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		right, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		f.Left, f.Right = left, right
		return f, nil
	}
	f := &Filter{}
	if p.peek() == "having" {
		f.Having = true
		p.next()
	}
	opTok := p.next()
	op, ok := parseOpToken(opTok)
	if !ok {
		return nil, fmt.Errorf("ast: bad filter op %q at %d", opTok, p.pos-1)
	}
	f.Op = op
	a, err := p.parseAttr()
	if err != nil {
		return nil, err
	}
	f.Attr = a
	if p.peek() == "(" {
		p.next()
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		f.Sub = sub
		return f, nil
	}
	want := 1
	if op == FilterBetween {
		want = 2
	}
	for i := 0; i < want; i++ {
		v, err := parseValueToken(p.next())
		if err != nil {
			return nil, err
		}
		f.Values = append(f.Values, v)
	}
	// IN with literal values: consume additional value tokens until a
	// keyword or end of stream.
	if op == FilterIn || op == FilterNotIn {
		for p.pos < len(p.toks) && !sectionKeywords[p.peek()] && !isFilterStart(p.peek()) {
			v, err := parseValueToken(p.next())
			if err != nil {
				return nil, err
			}
			f.Values = append(f.Values, v)
		}
	}
	return f, nil
}

func isFilterStart(tok string) bool {
	if tok == "and" || tok == "or" || tok == "having" {
		return true
	}
	_, ok := parseOpToken(tok)
	return ok
}

func parseValueToken(tok string) (Value, error) {
	if tok == "" {
		return Value{}, fmt.Errorf("ast: missing value token")
	}
	if tok[0] == '"' {
		s, err := strconv.Unquote(tok)
		if err != nil {
			return Value{}, fmt.Errorf("ast: bad string value %q: %v", tok, err)
		}
		return StringValue(s), nil
	}
	n, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return Value{}, fmt.Errorf("ast: bad numeric value %q: %v", tok, err)
	}
	if math.IsNaN(n) {
		// NaN is unequal to itself, so no tree holding it equals its re-parse.
		return Value{}, fmt.Errorf("ast: numeric value %q is not a number", tok)
	}
	return NumberValue(n), nil
}
