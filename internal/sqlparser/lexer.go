// Package sqlparser parses the Spider SQL subset into the unified AST of
// package ast. The subset covers SELECT (with DISTINCT and the five
// aggregates), FROM with multi-table joins, WHERE with AND/OR and the full
// comparison/BETWEEN/LIKE/IN predicate set (including nested subqueries),
// GROUP BY, HAVING, ORDER BY, LIMIT, and INTERSECT/UNION/EXCEPT.
//
// ORDER BY + LIMIT maps to the grammar's Superlative subtree (most/least);
// ORDER BY alone maps to Order; a bare LIMIT becomes a Superlative on the
// first selected attribute. JOIN ... ON conditions are recorded only as the
// joined table set — the executor re-derives join predicates from schema
// foreign keys, mirroring SemQL's implicit join resolution.
package sqlparser

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits SQL text into tokens. Identifiers are lower-cased (SQL is case
// insensitive); string literals keep their case.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			var sb strings.Builder
			for j < n {
				if input[j] == quote {
					if j+1 < n && input[j+1] == quote { // doubled quote escape
						sb.WriteByte(quote)
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sqlparser: unterminated string at %d", i)
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: i})
			i = j + 1
		case startsNumber(input[i:]):
			j := i
			if c == '-' { // a leading minus is part of a negative literal
				j++
			}
			seenDot := false
			for j < n && (isDigit(input[j]) || (input[j] == '.' && !seenDot)) {
				if input[j] == '.' {
					seenDot = true
				}
				j++
			}
			// An exponent, as ast renders large and small numbers (1e+06).
			if k := j + 1; k < n && (input[j] == 'e' || input[j] == 'E') {
				if input[k] == '+' || input[k] == '-' {
					k++
				}
				if k < n && isDigit(input[k]) {
					j = k
					for j < n && isDigit(input[j]) {
						j++
					}
				}
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isIdentPart(input[j]) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: strings.ToLower(input[i:j]), pos: i})
			i = j
		case c == '>' || c == '<' || c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else if c == '<' && i+1 < n && input[i+1] == '>' {
				toks = append(toks, token{kind: tokSymbol, text: "!=", pos: i})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sqlparser: stray '!' at %d", i)
			} else {
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
			}
		case strings.ContainsRune("(),.*=;", rune(c)):
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

// startsNumber reports whether s begins a numeric literal: a digit, a '.'
// before a digit, or a '-' before either (no other token uses '-').
func startsNumber(s string) bool {
	s = strings.TrimPrefix(s, "-")
	return len(s) > 0 && isDigit(s[0]) || len(s) > 1 && s[0] == '.' && isDigit(s[1])
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Identifiers are ASCII: the lexer reads bytes, and a non-ASCII byte
// taken for a letter would not survive lower-casing and re-rendering.
func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}
