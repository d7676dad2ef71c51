package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/render"
)

// The oracle: the reflection and fmt encoders the entry routes used before
// their bodies were encoded once. Every route must still serve exactly
// their bytes.

// apiEntry is the JSON shape of one entry.
type apiEntry struct {
	ID       int      `json:"id"`
	Database string   `json:"database"`
	Domain   string   `json:"domain"`
	Chart    string   `json:"chart"`
	Hardness string   `json:"hardness"`
	VQL      string   `json:"vql"`
	NLs      []string `json:"nl_queries"`
	Manual   bool     `json:"manual_nl"`
}

func toAPI(e *bench.Entry) apiEntry {
	return apiEntry{
		ID: e.ID, Database: e.DB.Name, Domain: e.DB.Domain,
		Chart: e.Chart.String(), Hardness: e.Hardness.String(),
		VQL: e.Vis.String(), NLs: e.NLs, Manual: e.Manual,
	}
}

// entriesPage is the paginated JSON shape of /api/entries.
type entriesPage struct {
	Total   int        `json:"total"`
	Offset  int        `json:"offset"`
	Limit   int        `json:"limit"`
	Entries []apiEntry `json:"entries"`
}

// oracleJSON is writeJSON's body for v.
func oracleJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func oracleEntriesPage(t *testing.T, b *bench.Benchmark, offset, limit int) []byte {
	total := len(b.Entries)
	start, end := min(offset, total), min(offset+limit, total)
	page := entriesPage{Total: total, Offset: offset, Limit: limit, Entries: make([]apiEntry, 0, end-start)}
	for _, e := range b.Entries[start:end] {
		page.Entries = append(page.Entries, toAPI(e))
	}
	return oracleJSON(t, page)
}

func oracleIndex(b *bench.Benchmark) []byte {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>nvbench browser</title></head><body>")
	fmt.Fprintf(&sb, "<h1>nvbench — %d vis objects, %d (nl, vis) pairs</h1><table border=1 cellpadding=4>",
		len(b.Entries), b.NumPairs())
	sb.WriteString("<tr><th>id</th><th>chart</th><th>hardness</th><th>database</th><th>first nl</th></tr>")
	for _, e := range b.Entries {
		nl := ""
		if len(e.NLs) > 0 {
			nl = e.NLs[0]
		}
		fmt.Fprintf(&sb, `<tr><td><a href="/entry/%d">%d</a></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`,
			e.ID, e.ID, html.EscapeString(e.Chart.String()), html.EscapeString(e.Hardness.String()),
			html.EscapeString(e.DB.Name), html.EscapeString(nl))
	}
	sb.WriteString("</table></body></html>")
	return []byte(sb.String())
}

func oracleEntryPage(t *testing.T, e *bench.Entry) []byte {
	t.Helper()
	spec, err := render.VegaLite(e.DB, e.Vis)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "<h1>entry %d — %s (%s)</h1><p><code>%s</code></p><ul>",
		e.ID, html.EscapeString(e.Chart.String()), html.EscapeString(e.Hardness.String()),
		html.EscapeString(e.Vis.String()))
	for _, nl := range e.NLs {
		fmt.Fprintf(&sb, "<li>%s</li>", html.EscapeString(nl))
	}
	sb.WriteString(`</ul><div id="vis"></div>`)
	page := string(render.HTMLPage(fmt.Sprintf("entry %d", e.ID), spec))
	return []byte(strings.Replace(page, `<div id="vis"></div>`, sb.String(), 1))
}

// hostileStrings are names and NLs that exercise every escaping path:
// HTML metacharacters, JSON escapes, control bytes, the JavaScript line
// separators, invalid UTF-8 and raw newlines inside a string.
var hostileStrings = []string{
	`<script>alert("x")</script> & 'q'`,
	`back\slash \"quoted\" \u0041`,
	"ctrl \x00\x01\x08\x0c\x1f\x7f tab\t cr\r nl\n end",
	"sep\u2028line\u2029para",
	"bad \xff\xfe utf8 \xc3 cut",
	"",
	"emoji 📊 and ünïcode",
	"\n\n{\n  \"id\": 1\n}\n",
}

// hostileServer serves copies of testServer's entries whose database
// names, domains and NLs are hostileStrings, plus entries with nil and
// with empty NL lists. The vis trees and tables are the originals, so
// every entry still renders.
func hostileServer(t *testing.T) *Server {
	t.Helper()
	src := testServer.Bench.Entries
	if len(src) < len(hostileStrings)+2 {
		t.Fatalf("test benchmark too small (%d entries)", len(src))
	}
	b := &bench.Benchmark{}
	for i, orig := range src[:len(hostileStrings)+2] {
		e := *orig
		db := *orig.DB
		e.DB = &db
		switch {
		case i < len(hostileStrings):
			db.Name = hostileStrings[i]
			db.Domain = hostileStrings[len(hostileStrings)-1-i]
			e.NLs = append([]string{hostileStrings[i]}, hostileStrings...)
			e.Manual = i%2 == 0
		case i == len(hostileStrings):
			e.NLs = nil
		default:
			e.NLs = []string{}
		}
		b.Entries = append(b.Entries, &e)
	}
	return New(b)
}

func body(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	rec := getWithHeader(t, s, path, "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func diffAt(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("first difference at byte %d of %d/%d:\n got …%q\nwant …%q",
		i, len(got), len(want), got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

func checkRoutesMatchOracle(t *testing.T, s *Server) {
	b := s.Bench
	total := len(b.Entries)
	for i, e := range b.Entries {
		path := fmt.Sprintf("/api/entry/%d", e.ID)
		if got, want := body(t, s, path), oracleJSON(t, toAPI(e)); !bytes.Equal(got, want) {
			t.Errorf("%s: %s", path, diffAt(got, want))
		}
		// The spec is rendered by the entry's first render request and
		// cached: alternate which route renders it, and check the Vega-Lite
		// route twice.
		spec, err := render.VegaLite(e.DB, e.Vis)
		if err != nil {
			t.Fatal(err)
		}
		checks := []struct {
			path string
			want []byte
		}{
			{fmt.Sprintf("/entry/%d", e.ID), oracleEntryPage(t, e)},
			{fmt.Sprintf("/api/entry/%d/vega", e.ID), spec},
			{fmt.Sprintf("/api/entry/%d/vega", e.ID), spec},
		}
		if i%2 == 1 {
			checks[0], checks[2] = checks[2], checks[0]
		}
		for _, c := range checks {
			if got := body(t, s, c.path); !bytes.Equal(got, c.want) {
				t.Errorf("%s: %s", c.path, diffAt(got, c.want))
			}
		}
	}
	pages := []struct{ offset, limit int }{
		{0, 0}, {0, 1}, {0, 50}, {1, 50}, {0, maxPageLimit},
		{max(0, total-3), 50}, // the last, partial page
		{total, 50}, {total + 5, 50}, {total + 5, 0},
	}
	for _, p := range pages {
		path := fmt.Sprintf("/api/entries?offset=%d&limit=%d", p.offset, p.limit)
		if got, want := body(t, s, path), oracleEntriesPage(t, b, p.offset, p.limit); !bytes.Equal(got, want) {
			t.Errorf("%s: %s", path, diffAt(got, want))
		}
	}
	if got, want := body(t, s, "/api/entries"), oracleEntriesPage(t, b, 0, defaultPageLimit); !bytes.Equal(got, want) {
		t.Errorf("/api/entries: %s", diffAt(got, want))
	}
	if got, want := body(t, s, "/"), oracleIndex(b); !bytes.Equal(got, want) {
		t.Errorf("/: %s", diffAt(got, want))
	}
}

func TestRoutesMatchOracle(t *testing.T) {
	checkRoutesMatchOracle(t, New(testServer.Bench)) // no spec cached yet
}

func TestHostileRoutesMatchOracle(t *testing.T) {
	s := hostileServer(t)
	checkRoutesMatchOracle(t, s)
	// The hostile bodies do reach the routes: the last two entries carry
	// nil and empty NL lists, and an escaped script tag shows on the index.
	n := len(s.Bench.Entries)
	if got := body(t, s, fmt.Sprintf("/api/entry/%d", s.Bench.Entries[n-2].ID)); !bytes.Contains(got, []byte(`"nl_queries": null`)) {
		t.Errorf("nil NLs: body %s", got)
	}
	if got := body(t, s, fmt.Sprintf("/api/entry/%d", s.Bench.Entries[n-1].ID)); !bytes.Contains(got, []byte(`"nl_queries": []`)) {
		t.Errorf("empty NLs: body %s", got)
	}
	if got := body(t, s, "/"); !bytes.Contains(got, []byte("&lt;script&gt;alert(&#34;x&#34;)")) {
		t.Error("index lacks the escaped hostile name")
	}
}

func TestAppendHTMLMatchesEscapeString(t *testing.T) {
	for _, s := range append(hostileStrings, "plain", "&amp; already", `'"'"<<>>&&`) {
		if got, want := string(appendHTML([]byte("x"), s)), "x"+html.EscapeString(s); got != want {
			t.Errorf("appendHTML(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestDefaultETagIsBodyHash pins the store-less validator: the SHA-256 of
// the /api/entry/N body, shared by the entry's other routes.
func TestDefaultETagIsBodyHash(t *testing.T) {
	for _, s := range []*Server{testServer, hostileServer(t)} {
		for _, e := range s.Bench.Entries {
			rec := getWithHeader(t, s, fmt.Sprintf("/api/entry/%d", e.ID), "", "")
			sum := sha256.Sum256(rec.Body.Bytes())
			want := `"` + hex.EncodeToString(sum[:]) + `"`
			if got := rec.Header().Get("ETag"); got != want {
				t.Fatalf("entry %d: ETag %s, want the body's hash %s", e.ID, got, want)
			}
			if got := getWithHeader(t, s, fmt.Sprintf("/entry/%d", e.ID), "If-None-Match", want); got.Code != http.StatusNotModified {
				t.Fatalf("entry %d: /entry revalidation = %d, want 304", e.ID, got.Code)
			}
		}
	}
}
