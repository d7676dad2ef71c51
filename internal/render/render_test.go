package render

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
)

func renderDB() *dataset.Database {
	t := &dataset.Table{
		Name: "emp",
		Columns: []dataset.Column{
			{Name: "id", Type: dataset.Quantitative},
			{Name: "dept", Type: dataset.Categorical},
			{Name: "rank", Type: dataset.Categorical},
			{Name: "salary", Type: dataset.Quantitative},
			{Name: "bonus", Type: dataset.Quantitative},
			{Name: "hired", Type: dataset.Temporal},
		},
	}
	depts := []string{"CS", "EE", "Math"}
	ranks := []string{"junior", "senior"}
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 24; i++ {
		t.Rows = append(t.Rows, []dataset.Cell{
			dataset.N(float64(i + 1)),
			dataset.S(depts[i%3]),
			dataset.S(ranks[i%2]),
			dataset.N(float64(50 + i*3)),
			dataset.N(float64(5 + i)),
			dataset.T(base.AddDate(0, i%36, 0)),
		})
	}
	return &dataset.Database{Name: "co", Domain: "Company", Tables: []*dataset.Table{t}}
}

func mustVega(t *testing.T, line string) map[string]any {
	t.Helper()
	q, err := ast.ParseString(line)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := VegaLite(renderDB(), q)
	if err != nil {
		t.Fatalf("VegaLite(%q): %v", line, err)
	}
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return spec
}

func mustECharts(t *testing.T, line string) map[string]any {
	t.Helper()
	q, err := ast.ParseString(line)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ECharts(renderDB(), q)
	if err != nil {
		t.Fatalf("ECharts(%q): %v", line, err)
	}
	var opt map[string]any
	if err := json.Unmarshal(raw, &opt); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return opt
}

func TestVegaBar(t *testing.T) {
	spec := mustVega(t, "visualize bar select emp.dept count emp.* from emp group grouping emp.dept")
	if spec["mark"] != "bar" {
		t.Errorf("mark = %v", spec["mark"])
	}
	enc := spec["encoding"].(map[string]any)
	if enc["x"].(map[string]any)["type"] != "nominal" {
		t.Errorf("x type = %v", enc["x"])
	}
	if enc["y"].(map[string]any)["type"] != "quantitative" {
		t.Errorf("y type = %v", enc["y"])
	}
	values := spec["data"].(map[string]any)["values"].([]any)
	if len(values) != 3 {
		t.Errorf("data rows = %d, want 3", len(values))
	}
}

func TestVegaPieUsesThetaAndColor(t *testing.T) {
	spec := mustVega(t, "visualize pie select emp.dept count emp.* from emp group grouping emp.dept")
	if spec["mark"] != "arc" {
		t.Errorf("pie mark = %v", spec["mark"])
	}
	enc := spec["encoding"].(map[string]any)
	if enc["theta"] == nil || enc["color"] == nil {
		t.Errorf("pie encoding missing theta/color: %v", enc)
	}
	if enc["x"] != nil {
		t.Error("pie should not encode x")
	}
}

func TestVegaScatterQuantitativeAxes(t *testing.T) {
	spec := mustVega(t, "visualize scatter select emp.salary emp.bonus from emp")
	if spec["mark"] != "point" {
		t.Errorf("scatter mark = %v", spec["mark"])
	}
	enc := spec["encoding"].(map[string]any)
	if enc["x"].(map[string]any)["type"] != "quantitative" || enc["y"].(map[string]any)["type"] != "quantitative" {
		t.Errorf("scatter axes: %v", enc)
	}
}

func TestVegaStackedBarColorAndStack(t *testing.T) {
	spec := mustVega(t, "visualize stacked_bar select emp.dept sum emp.salary emp.rank from emp group grouping emp.dept grouping emp.rank")
	enc := spec["encoding"].(map[string]any)
	if enc["color"] == nil {
		t.Error("stacked bar needs color channel")
	}
	if enc["y"].(map[string]any)["stack"] != "zero" {
		t.Error("stacked bar needs stack: zero")
	}
}

func TestVegaOrderBecomesSort(t *testing.T) {
	spec := mustVega(t, "visualize bar select emp.dept count emp.* from emp group grouping emp.dept order desc count emp.*")
	enc := spec["encoding"].(map[string]any)
	if enc["x"].(map[string]any)["sort"] != "-y" {
		t.Errorf("sort = %v", enc["x"].(map[string]any)["sort"])
	}
}

func TestVegaLineOverBinnedTemporal(t *testing.T) {
	spec := mustVega(t, "visualize line select emp.hired count emp.* from emp group binning emp.hired year")
	if spec["mark"] != "line" {
		t.Errorf("mark = %v", spec["mark"])
	}
}

func TestEChartsBar(t *testing.T) {
	opt := mustECharts(t, "visualize bar select emp.dept count emp.* from emp group grouping emp.dept")
	x := opt["xAxis"].(map[string]any)
	if x["type"] != "category" {
		t.Errorf("xAxis = %v", x)
	}
	cats := x["data"].([]any)
	if len(cats) != 3 {
		t.Errorf("categories = %v", cats)
	}
	series := opt["series"].([]any)
	if len(series) != 1 || series[0].(map[string]any)["type"] != "bar" {
		t.Errorf("series = %v", series)
	}
	if len(series[0].(map[string]any)["data"].([]any)) != 3 {
		t.Error("series data length mismatch")
	}
}

func TestEChartsPie(t *testing.T) {
	opt := mustECharts(t, "visualize pie select emp.dept count emp.* from emp group grouping emp.dept")
	series := opt["series"].([]any)
	s0 := series[0].(map[string]any)
	if s0["type"] != "pie" {
		t.Errorf("series type = %v", s0["type"])
	}
	data := s0["data"].([]any)
	if len(data) != 3 {
		t.Errorf("pie slices = %d", len(data))
	}
	first := data[0].(map[string]any)
	if first["name"] == nil || first["value"] == nil {
		t.Errorf("pie datum = %v", first)
	}
}

func TestEChartsStackedSeries(t *testing.T) {
	opt := mustECharts(t, "visualize stacked_bar select emp.dept sum emp.salary emp.rank from emp group grouping emp.dept grouping emp.rank")
	series := opt["series"].([]any)
	if len(series) != 2 {
		t.Fatalf("expected 2 series (junior/senior), got %d", len(series))
	}
	for _, s := range series {
		sm := s.(map[string]any)
		if sm["stack"] != "total" {
			t.Errorf("series missing stack flag: %v", sm)
		}
	}
}

func TestEChartsScatterSeries(t *testing.T) {
	opt := mustECharts(t, "visualize scatter select emp.salary emp.bonus from emp")
	series := opt["series"].([]any)
	s0 := series[0].(map[string]any)
	if s0["type"] != "scatter" {
		t.Errorf("type = %v", s0["type"])
	}
	pts := s0["data"].([]any)
	if len(pts) != 24 {
		t.Errorf("points = %d", len(pts))
	}
}

func TestEChartsGroupingScatterSplits(t *testing.T) {
	opt := mustECharts(t, "visualize grouping_scatter select emp.salary emp.bonus emp.rank from emp group grouping emp.rank")
	series := opt["series"].([]any)
	if len(series) != 2 {
		t.Fatalf("expected 2 scatter series, got %d", len(series))
	}
}

func TestRenderErrors(t *testing.T) {
	db := renderDB()
	sqlOnly, _ := ast.ParseString("select emp.dept from emp")
	if _, err := VegaLite(db, sqlOnly); err == nil {
		t.Error("rendering a non-vis tree should error")
	}
	if _, err := ECharts(db, sqlOnly); err == nil {
		t.Error("echarts on non-vis tree should error")
	}
	badCol, _ := ast.ParseString("visualize bar select emp.nosuch count emp.* from emp group grouping emp.nosuch")
	if _, err := VegaLite(db, badCol); err == nil {
		t.Error("unknown column should error")
	}
	oneAttr := &ast.Query{Visualize: ast.Bar, Left: &ast.Core{
		Select: []ast.Attr{{Column: "dept", Table: "emp"}},
		Tables: []string{"emp"},
	}}
	if _, err := VegaLite(db, oneAttr); err == nil {
		t.Error("single-attribute vis should error at render")
	}
}

func TestVegaSpecIsParseableJSONWithSchema(t *testing.T) {
	q, _ := ast.ParseString("visualize bar select emp.dept count emp.* from emp group grouping emp.dept")
	raw, err := VegaLite(renderDB(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "vega-lite/v5.json") {
		t.Error("schema URL missing")
	}
}

func TestHTMLPage(t *testing.T) {
	q, _ := ast.ParseString("visualize bar select emp.dept count emp.* from emp group grouping emp.dept")
	page, err := Page(renderDB(), q, "dept <counts> & more")
	if err != nil {
		t.Fatal(err)
	}
	html := string(page)
	for _, want := range []string{"<!DOCTYPE html>", "vegaEmbed", "vega-lite", "dept &lt;counts&gt; &amp; more"} {
		if !strings.Contains(html, want) {
			t.Errorf("page missing %q", want)
		}
	}
	// Broken spec degrades to an empty chart, not a broken page.
	broken := HTMLPage("x", []byte("{not json"))
	if !strings.Contains(string(broken), "vegaEmbed(\"#vis\", {})") {
		t.Error("broken spec should degrade to {}")
	}
}

// oracleHTMLPage is HTMLPage's document as one fmt template, with the
// escaping it has always had: <, > and & only, rune by rune.
func oracleHTMLPage(title string, vegaSpec []byte) []byte {
	var check map[string]any
	if err := json.Unmarshal(vegaSpec, &check); err != nil {
		vegaSpec = []byte("{}")
	}
	var esc []rune
	for _, r := range title {
		switch r {
		case '<':
			esc = append(esc, []rune("&lt;")...)
		case '>':
			esc = append(esc, []rune("&gt;")...)
		case '&':
			esc = append(esc, []rune("&amp;")...)
		default:
			esc = append(esc, r)
		}
	}
	return []byte(fmt.Sprintf(`<!DOCTYPE html>
<html>
<head>
  <meta charset="utf-8">
  <title>%s</title>
  <script src="https://cdn.jsdelivr.net/npm/vega@5"></script>
  <script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>
  <script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>
</head>
<body>
  <div id="vis"></div>
  <script>
    vegaEmbed("#vis", %s);
  </script>
</body>
</html>
`, string(esc), vegaSpec))
}

func TestHTMLPageMatchesTemplate(t *testing.T) {
	for _, title := range []string{"", "entry 7", `a <b> & 'c' "d"`, "bad \xff\xc3 utf8", "📊"} {
		for _, spec := range []string{`{"mark": "bar"}`, "{not json", "[1, 2]", ""} {
			got, want := HTMLPage(title, []byte(spec)), oracleHTMLPage(title, []byte(spec))
			if !bytes.Equal(got, want) {
				t.Errorf("HTMLPage(%q, %q):\n%s\nwant\n%s", title, spec, got, want)
			}
		}
	}
	// A header fragment lands just before the chart container, as the
	// entry pages used to splice it in.
	header := []byte("<h1>entry 7</h1><ul><li>nl</li></ul>")
	got := AppendHTMLPage([]byte("prefix:"), "entry 7", header, []byte(`{"mark": "bar"}`))
	want := "prefix:" + strings.Replace(string(oracleHTMLPage("entry 7", []byte(`{"mark": "bar"}`))),
		`<div id="vis"></div>`, string(header)+`<div id="vis"></div>`, 1)
	if string(got) != want {
		t.Errorf("AppendHTMLPage with a header:\n%s\nwant\n%s", got, want)
	}
}

func TestPagePropagatesErrors(t *testing.T) {
	sqlOnly, _ := ast.ParseString("select emp.dept from emp")
	if _, err := Page(renderDB(), sqlOnly, "t"); err == nil {
		t.Error("Page should propagate render errors")
	}
}
