package render

import (
	"encoding/json"
	"unicode/utf8"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
)

// The page template, split where AppendHTMLPage writes the title, the
// caller's header fragment and the spec.
const (
	pageHead = `<!DOCTYPE html>
<html>
<head>
  <meta charset="utf-8">
  <title>`
	pageBody = `</title>
  <script src="https://cdn.jsdelivr.net/npm/vega@5"></script>
  <script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>
  <script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>
</head>
<body>
  `
	pageVis = `<div id="vis"></div>
  <script>
    vegaEmbed("#vis", `
	pageTail = `);
  </script>
</body>
</html>
`
)

// HTMLPage wraps a Vega-Lite spec in a self-contained HTML document that
// renders the chart with the vega-embed CDN bundle — the quickest way to
// eyeball a synthesized visualization in a browser.
func HTMLPage(title string, vegaSpec []byte) []byte {
	// Validate the spec is JSON so a broken page never ships.
	var check map[string]any
	if err := json.Unmarshal(vegaSpec, &check); err != nil {
		vegaSpec = []byte("{}")
	}
	return AppendHTMLPage(nil, title, nil, vegaSpec)
}

// AppendHTMLPage appends HTMLPage's document to dst with header, raw HTML,
// placed just before the chart container. The spec is written as given,
// unchecked: pass JSON that VegaLite produced, and anything else through
// HTMLPage.
func AppendHTMLPage(dst []byte, title string, header, vegaSpec []byte) []byte {
	dst = append(dst, pageHead...)
	dst = appendTitle(dst, title)
	dst = append(dst, pageBody...)
	dst = append(dst, header...)
	dst = append(dst, pageVis...)
	dst = append(dst, vegaSpec...)
	return append(dst, pageTail...)
}

// Page executes the vis query and returns a complete HTML document.
func Page(db *dataset.Database, q *ast.Query, title string) ([]byte, error) {
	spec, err := VegaLite(db, q)
	if err != nil {
		return nil, err
	}
	return HTMLPage(title, spec), nil
}

// appendTitle appends s with <, > and & escaped, rune by rune, so an
// invalid UTF-8 byte becomes U+FFFD.
func appendTitle(dst []byte, s string) []byte {
	for _, r := range s {
		switch r {
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '&':
			dst = append(dst, "&amp;"...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}
