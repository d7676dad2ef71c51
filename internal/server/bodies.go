package server

import (
	"bytes"
	"encoding/json"
	"strconv"

	"nvbench/internal/bench"
)

// The served benchmark is immutable, so each entry's /api/entry/N body and
// the index page are encoded once, when the server is built, and the
// routes write or splice those bytes. The JSON layout is encoding/json's:
// an entry body or an /api/entries page is exactly what
// json.MarshalIndent(v, "", "  ") plus a newline gives for its object.

// encodeEntries encodes every entry's /api/entry/N body into one buffer
// of exact size and returns the bodies, positionally aligned with
// entries.
func encodeEntries(entries []*bench.Entry) [][]byte {
	var all []byte
	ends := make([]int, len(entries))
	for i, e := range entries {
		all = appendAPIEntry(all, e)
		ends[i] = len(all)
	}
	exact := bytes.Clone(all)
	bodies := make([][]byte, len(entries))
	start := 0
	for i, end := range ends {
		bodies[i] = exact[start:end:end]
		start = end
	}
	return bodies
}

// appendAPIEntry appends e's /api/entry/N body. Keys and whitespace are
// literal; each string goes through json.Marshal, so its escaping is
// encoding/json's.
func appendAPIEntry(dst []byte, e *bench.Entry) []byte {
	dst = append(dst, "{\n  \"id\": "...)
	dst = strconv.AppendInt(dst, int64(e.ID), 10)
	dst = append(dst, ",\n  \"database\": "...)
	dst = appendJSONString(dst, e.DB.Name)
	dst = append(dst, ",\n  \"domain\": "...)
	dst = appendJSONString(dst, e.DB.Domain)
	dst = append(dst, ",\n  \"chart\": "...)
	dst = appendJSONString(dst, e.Chart.String())
	dst = append(dst, ",\n  \"hardness\": "...)
	dst = appendJSONString(dst, e.Hardness.String())
	dst = append(dst, ",\n  \"vql\": "...)
	dst = appendJSONString(dst, e.Vis.String())
	dst = append(dst, ",\n  \"nl_queries\": "...)
	switch {
	case e.NLs == nil:
		dst = append(dst, "null"...)
	case len(e.NLs) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i, nl := range e.NLs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    "...)
			dst = appendJSONString(dst, nl)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = append(dst, ",\n  \"manual_nl\": "...)
	dst = strconv.AppendBool(dst, e.Manual)
	return append(dst, "\n}\n"...)
}

// appendJSONString appends s as encoding/json writes a string.
func appendJSONString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string value cannot fail to marshal
	return append(dst, b...)
}

// appendEntriesPage appends the /api/entries body for the given page
// parameters and the stored bodies of the entries it lists. Each body
// nests two levels deeper in the page, so every line of it gains four
// spaces; a JSON string never holds a raw newline, so every newline in a
// body is layout.
func appendEntriesPage(dst []byte, total, offset, limit int, bodies [][]byte) []byte {
	dst = append(dst, "{\n  \"total\": "...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, ",\n  \"offset\": "...)
	dst = strconv.AppendInt(dst, int64(offset), 10)
	dst = append(dst, ",\n  \"limit\": "...)
	dst = strconv.AppendInt(dst, int64(limit), 10)
	if len(bodies) == 0 {
		return append(dst, ",\n  \"entries\": []\n}\n"...)
	}
	dst = append(dst, ",\n  \"entries\": ["...)
	for i, body := range bodies {
		if i > 0 {
			dst = append(dst, ',')
		}
		body = body[:len(body)-1] // the body's own trailing newline
		for len(body) > 0 {
			line := body
			if j := bytes.IndexByte(body, '\n'); j >= 0 {
				line, body = body[:j], body[j+1:]
			} else {
				body = nil
			}
			dst = append(dst, "\n    "...)
			dst = append(dst, line...)
		}
	}
	return append(dst, "\n  ]\n}\n"...)
}

// entriesPageSize is an upper bound on appendEntriesPage's output for
// bodies: the header, each body and four spaces per line of it.
func entriesPageSize(bodies [][]byte) int {
	n := 128
	for _, body := range bodies {
		n += len(body) + 1 + 4*bytes.Count(body, []byte{'\n'})
	}
	return n
}

// appendHTML appends s escaped exactly as html.EscapeString escapes it,
// in one pass and without an intermediate string.
func appendHTML(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '"':
			esc = "&#34;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// Fixed parts of the index page.
const (
	indexHead = "<!DOCTYPE html><html><head><title>nvbench browser</title></head><body><h1>nvbench — "
	indexCols = " (nl, vis) pairs</h1><table border=1 cellpadding=4>" +
		"<tr><th>id</th><th>chart</th><th>hardness</th><th>database</th><th>first nl</th></tr>"
	indexTail = "</table></body></html>"
)

// appendIndex appends the index page: one table row per entry.
func appendIndex(dst []byte, b *bench.Benchmark) []byte {
	dst = append(dst, indexHead...)
	dst = strconv.AppendInt(dst, int64(len(b.Entries)), 10)
	dst = append(dst, " vis objects, "...)
	dst = strconv.AppendInt(dst, int64(b.NumPairs()), 10)
	dst = append(dst, indexCols...)
	for _, e := range b.Entries {
		dst = append(dst, `<tr><td><a href="/entry/`...)
		dst = strconv.AppendInt(dst, int64(e.ID), 10)
		dst = append(dst, `">`...)
		dst = strconv.AppendInt(dst, int64(e.ID), 10)
		dst = append(dst, "</a></td><td>"...)
		dst = appendHTML(dst, e.Chart.String())
		dst = append(dst, "</td><td>"...)
		dst = appendHTML(dst, e.Hardness.String())
		dst = append(dst, "</td><td>"...)
		dst = appendHTML(dst, e.DB.Name)
		dst = append(dst, "</td><td>"...)
		if len(e.NLs) > 0 {
			dst = appendHTML(dst, e.NLs[0])
		}
		dst = append(dst, "</td></tr>"...)
	}
	return append(dst, indexTail...)
}

// appendEntryHeader appends the header fragment of e's HTML page: its
// title line, its vis query and its NL queries.
func appendEntryHeader(dst []byte, e *bench.Entry) []byte {
	dst = append(dst, "<h1>entry "...)
	dst = strconv.AppendInt(dst, int64(e.ID), 10)
	dst = append(dst, " — "...)
	dst = appendHTML(dst, e.Chart.String())
	dst = append(dst, " ("...)
	dst = appendHTML(dst, e.Hardness.String())
	dst = append(dst, ")</h1><p><code>"...)
	dst = appendHTML(dst, e.Vis.String())
	dst = append(dst, "</code></p><ul>"...)
	for _, nl := range e.NLs {
		dst = append(dst, "<li>"...)
		dst = appendHTML(dst, nl)
		dst = append(dst, "</li>"...)
	}
	return append(dst, "</ul>"...)
}
