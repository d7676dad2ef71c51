package sqlparser

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
	"nvbench/internal/fault"
	"nvbench/internal/obs"
)

// TryParse parses an SQL statement into a unified AST. The optional db
// schema resolves bare (unqualified) column names and validates table
// references; pass nil to parse purely syntactically (bare columns keep an
// empty table). TryParse is the exported boundary the pipeline uses: it
// reports malformed input as an error, never a panic.
func TryParse(sql string, db *dataset.Database) (*ast.Query, error) {
	t := instrument.Load().Begin(context.Background(), obs.LayerBench, obs.StageSQLParse)
	q, err := tryParse(sql, db)
	if err != nil {
		t.End("error", "error", err.Error())
	} else {
		t.End("ok")
	}
	return q, err
}

func tryParse(sql string, db *dataset.Database) (*ast.Query, error) {
	if err := fault.Inject(fault.SiteParse); err != nil {
		return nil, fmt.Errorf("sqlparser: %w", err)
	}
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, db: db}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlparser: trailing input at %d: %q", p.peek().pos, p.peek().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	db   *dataset.Database
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return token{kind: tokEOF}
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokIdent && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %q at %d, got %q", kw, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sqlparser: expected %q at %d, got %q", sym, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) parseQuery() (*ast.Query, error) {
	core, err := p.parseCore()
	if err != nil {
		return nil, err
	}
	q := &ast.Query{Left: core}
	switch {
	case p.acceptKeyword("intersect"):
		q.SetOp = ast.SetIntersect
	case p.acceptKeyword("union"):
		q.SetOp = ast.SetUnion
		p.acceptKeyword("all") // UNION ALL treated as UNION
	case p.acceptKeyword("except"):
		q.SetOp = ast.SetExcept
	default:
		return q, nil
	}
	right, err := p.parseCore()
	if err != nil {
		return nil, err
	}
	q.Right = right
	return q, nil
}

// coreBuilder carries alias resolution state while parsing one select core.
type coreBuilder struct {
	aliases map[string]string // alias -> table name
	tables  []string
}

func (b *coreBuilder) resolveTable(name string) string {
	if t, ok := b.aliases[name]; ok {
		return t
	}
	return name
}

func (p *parser) parseCore() (*ast.Core, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	b := &coreBuilder{aliases: map[string]string{}}
	distinct := p.acceptKeyword("distinct")

	// The select list references columns that may be qualified by aliases
	// declared later in FROM, so parse the raw select items first and
	// resolve afterwards.
	type rawAttr struct {
		agg      ast.AggFunc
		distinct bool
		table    string
		column   string
	}
	var raws []rawAttr
	for {
		var ra rawAttr
		ra.distinct = distinct
		if p.peek().kind == tokIdent {
			if agg, err := ast.ParseAggFunc(p.peek().text); err == nil && agg != ast.AggNone && p.peek2().text == "(" {
				p.next()
				p.next() // (
				ra.agg = agg
				if p.acceptKeyword("distinct") {
					ra.distinct = true
				}
			}
		}
		tbl, col, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		ra.table, ra.column = tbl, col
		if ra.agg != ast.AggNone {
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		// Optional select alias: AS name (ignored — the AST names attributes
		// canonically).
		if p.acceptKeyword("as") {
			if p.peek().kind != tokIdent {
				return nil, fmt.Errorf("sqlparser: expected alias at %d", p.peek().pos)
			}
			p.next()
		}
		raws = append(raws, ra)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseFromClause(b); err != nil {
		return nil, err
	}

	core := &ast.Core{Tables: b.tables}
	for _, ra := range raws {
		a := ast.Attr{Agg: ra.agg, Distinct: ra.distinct, Column: ra.column}
		a.Table = p.resolveColumnTable(b, ra.table, ra.column)
		core.Select = append(core.Select, a)
	}

	if p.acceptKeyword("where") {
		f, err := p.parseFilterExpr(b, false)
		if err != nil {
			return nil, err
		}
		core.Filter = f
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			tbl, col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			g := ast.Group{Kind: ast.Grouping, Attr: ast.Attr{Column: col}}
			g.Attr.Table = p.resolveColumnTable(b, tbl, col)
			core.Groups = append(core.Groups, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		f, err := p.parseFilterExpr(b, true)
		if err != nil {
			return nil, err
		}
		if core.Filter == nil {
			core.Filter = f
		} else {
			core.Filter = &ast.Filter{Op: ast.FilterAnd, Left: core.Filter, Right: f}
		}
	}

	var orderAttr *ast.Attr
	orderDesc := false
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		a, err := p.parseAttrExpr(b)
		if err != nil {
			return nil, err
		}
		orderAttr = &a
		if p.acceptKeyword("desc") {
			orderDesc = true
		} else {
			p.acceptKeyword("asc")
		}
	}
	limit := -1
	if p.acceptKeyword("limit") {
		if p.peek().kind != tokNumber {
			return nil, fmt.Errorf("sqlparser: expected LIMIT count at %d", p.peek().pos)
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: bad LIMIT: %v", err)
		}
		limit = n
	}
	switch {
	case orderAttr != nil && limit >= 0:
		core.Superlative = &ast.Superlative{Most: orderDesc, K: limit, Attr: *orderAttr}
	case orderAttr != nil:
		dir := ast.Asc
		if orderDesc {
			dir = ast.Desc
		}
		core.Order = &ast.Order{Dir: dir, Attr: *orderAttr}
	case limit >= 0:
		core.Superlative = &ast.Superlative{Most: false, K: limit, Attr: core.Select[0]}
	}
	return core, nil
}

// parseFromClause reads "table [AS alias] (, table | JOIN table ON a=b)*".
func (p *parser) parseFromClause(b *coreBuilder) error {
	readTable := func() error {
		if p.peek().kind != tokIdent {
			return fmt.Errorf("sqlparser: expected table name at %d", p.peek().pos)
		}
		name := p.next().text
		if p.db != nil && p.db.Table(name) == nil {
			return fmt.Errorf("sqlparser: unknown table %q", name)
		}
		alias := name
		if p.acceptKeyword("as") {
			if p.peek().kind != tokIdent {
				return fmt.Errorf("sqlparser: expected alias at %d", p.peek().pos)
			}
			alias = p.next().text
		} else if p.peek().kind == tokIdent && !fromClauseKeyword(p.peek().text) {
			alias = p.next().text
		}
		b.aliases[alias] = name
		b.tables = append(b.tables, name)
		return nil
	}
	if err := readTable(); err != nil {
		return err
	}
	for {
		switch {
		case p.acceptSymbol(","):
			if err := readTable(); err != nil {
				return err
			}
		case p.peek().kind == tokIdent && (p.peek().text == "join" || p.peek().text == "inner" || p.peek().text == "left" || p.peek().text == "right"):
			p.next()
			p.acceptKeyword("outer")
			p.acceptKeyword("join")
			if err := readTable(); err != nil {
				return err
			}
			if p.acceptKeyword("on") {
				// Consume "a.b = c.d [AND ...]": the join condition is
				// re-derived from foreign keys at execution time.
				for {
					if _, _, err := p.parseColumnRef(); err != nil {
						return err
					}
					if err := p.expectSymbol("="); err != nil {
						return err
					}
					if _, _, err := p.parseColumnRef(); err != nil {
						return err
					}
					if !p.acceptKeyword("and") {
						break
					}
				}
			}
		default:
			return nil
		}
	}
}

func fromClauseKeyword(s string) bool {
	switch s {
	case "join", "inner", "left", "right", "outer", "on", "where", "group",
		"having", "order", "limit", "intersect", "union", "except", "as", "and":
		return true
	}
	return false
}

// parseColumnRef reads "table.column", "alias.column", "column" or "*".
func (p *parser) parseColumnRef() (table, column string, err error) {
	if p.acceptSymbol("*") {
		return "", "*", nil
	}
	if p.peek().kind != tokIdent {
		return "", "", fmt.Errorf("sqlparser: expected column at %d, got %q", p.peek().pos, p.peek().text)
	}
	first := p.next().text
	if p.acceptSymbol(".") {
		if p.acceptSymbol("*") {
			return first, "*", nil
		}
		if p.peek().kind != tokIdent {
			return "", "", fmt.Errorf("sqlparser: expected column after '.' at %d", p.peek().pos)
		}
		return first, p.next().text, nil
	}
	return "", first, nil
}

// resolveColumnTable maps an alias (or empty qualifier) to a concrete table.
// Unqualified columns resolve against the FROM tables via the schema; when
// no schema is available the first FROM table is assumed.
func (p *parser) resolveColumnTable(b *coreBuilder, qualifier, column string) string {
	if qualifier != "" {
		return b.resolveTable(qualifier)
	}
	if column == "*" {
		if len(b.tables) > 0 {
			return b.tables[0]
		}
		return ""
	}
	if p.db != nil {
		for _, t := range b.tables {
			if tbl := p.db.Table(t); tbl != nil {
				if _, ok := tbl.Column(column); ok {
					return t
				}
			}
		}
	}
	if len(b.tables) > 0 {
		return b.tables[0]
	}
	return ""
}

// parseAttrExpr reads an optionally aggregated column reference.
func (p *parser) parseAttrExpr(b *coreBuilder) (ast.Attr, error) {
	var a ast.Attr
	if p.peek().kind == tokIdent {
		if agg, err := ast.ParseAggFunc(p.peek().text); err == nil && agg != ast.AggNone && p.peek2().text == "(" {
			p.next()
			p.next()
			a.Agg = agg
			if p.acceptKeyword("distinct") {
				a.Distinct = true
			}
			tbl, col, err := p.parseColumnRef()
			if err != nil {
				return a, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return a, err
			}
			a.Column = col
			a.Table = p.resolveColumnTable(b, tbl, col)
			return a, nil
		}
	}
	tbl, col, err := p.parseColumnRef()
	if err != nil {
		return a, err
	}
	a.Column = col
	a.Table = p.resolveColumnTable(b, tbl, col)
	return a, nil
}

// parseFilterExpr parses a WHERE/HAVING expression with OR (lowest
// precedence), AND, and predicates.
func (p *parser) parseFilterExpr(b *coreBuilder, having bool) (*ast.Filter, error) {
	left, err := p.parseFilterAnd(b, having)
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseFilterAnd(b, having)
		if err != nil {
			return nil, err
		}
		left = &ast.Filter{Op: ast.FilterOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseFilterAnd(b *coreBuilder, having bool) (*ast.Filter, error) {
	left, err := p.parsePredicate(b, having)
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parsePredicate(b, having)
		if err != nil {
			return nil, err
		}
		left = &ast.Filter{Op: ast.FilterAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePredicate(b *coreBuilder, having bool) (*ast.Filter, error) {
	if p.acceptSymbol("(") {
		f, err := p.parseFilterExpr(b, having)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	attr, err := p.parseAttrExpr(b)
	if err != nil {
		return nil, err
	}
	f := &ast.Filter{Attr: attr, Having: having}

	negated := p.acceptKeyword("not")
	switch {
	case p.acceptKeyword("between"):
		f.Op = ast.FilterBetween
		lo, err := p.parseValueOrSubquery(f)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseValueOrSubquery(f)
		if err != nil {
			return nil, err
		}
		if f.Sub == nil {
			f.Values = []ast.Value{lo, hi}
		}
	case p.acceptKeyword("like"):
		f.Op = ast.FilterLike
		if negated {
			f.Op = ast.FilterNotLike
		}
		v, err := p.parseValueOrSubquery(f)
		if err != nil {
			return nil, err
		}
		f.Values = []ast.Value{v}
	case p.acceptKeyword("in"):
		f.Op = ast.FilterIn
		if negated {
			f.Op = ast.FilterNotIn
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.peek().kind == tokIdent && p.peek().text == "select" {
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			f.Sub = sub
		} else {
			for {
				v, err := p.parseLiteral()
				if err != nil {
					return nil, err
				}
				f.Values = append(f.Values, v)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	default:
		if negated {
			return nil, fmt.Errorf("sqlparser: NOT must precede LIKE or IN at %d", p.peek().pos)
		}
		op, ok := comparisonOp(p.peek())
		if !ok {
			return nil, fmt.Errorf("sqlparser: expected comparison at %d, got %q", p.peek().pos, p.peek().text)
		}
		p.next()
		f.Op = op
		v, err := p.parseValueOrSubquery(f)
		if err != nil {
			return nil, err
		}
		if f.Sub == nil {
			f.Values = []ast.Value{v}
		}
	}
	return f, nil
}

func comparisonOp(t token) (ast.FilterOp, bool) {
	if t.kind != tokSymbol {
		return 0, false
	}
	switch t.text {
	case ">":
		return ast.FilterGT, true
	case "<":
		return ast.FilterLT, true
	case ">=":
		return ast.FilterGE, true
	case "<=":
		return ast.FilterLE, true
	case "=":
		return ast.FilterEQ, true
	case "!=":
		return ast.FilterNE, true
	}
	return 0, false
}

// parseValueOrSubquery reads a literal, or a parenthesized SELECT which is
// stored on the filter's Sub field.
func (p *parser) parseValueOrSubquery(f *ast.Filter) (ast.Value, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "(" && p.peek2().kind == tokIdent && p.peek2().text == "select" {
		p.next()
		sub, err := p.parseQuery()
		if err != nil {
			return ast.Value{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return ast.Value{}, err
		}
		f.Sub = sub
		return ast.Value{}, nil
	}
	return p.parseLiteral()
}

func (p *parser) parseLiteral() (ast.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return ast.Value{}, fmt.Errorf("sqlparser: bad number %q: %v", t.text, err)
		}
		return ast.NumberValue(n), nil
	case tokString:
		p.next()
		return ast.StringValue(t.text), nil
	case tokIdent:
		// Bare words used as values (Spider occasionally has unquoted
		// literals); keep the original case lost by the lexer — acceptable
		// because comparisons are case-insensitive downstream.
		p.next()
		return ast.StringValue(t.text), nil
	}
	return ast.Value{}, fmt.Errorf("sqlparser: expected literal at %d, got %q", t.pos, t.text)
}

// Parse is the thin must-wrapper over TryParse for tests and examples: it
// panics on malformed input. Pipeline and server code must call TryParse
// and propagate the error instead.
func Parse(sql string, db *dataset.Database) *ast.Query {
	q, err := TryParse(sql, db)
	if err != nil {
		panic(fmt.Sprintf("sqlparser: %v (input: %s)", err, strings.TrimSpace(sql)))
	}
	return q
}
