// Package render converts vis trees to concrete visualization languages —
// the Section 2.6 step. Two hard-coded mappings are provided, matching the
// paper's implementation targets: Vega-Lite (v5) and ECharts option
// objects. Both render the executed data inline so the output is a complete,
// self-contained specification.
package render

import (
	"context"
	"encoding/json"
	"fmt"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
	"nvbench/internal/fault"
)

// VegaLite executes the vis query and renders a Vega-Lite v5 specification.
func VegaLite(db *dataset.Database, q *ast.Query) ([]byte, error) {
	return VegaLiteContext(context.Background(), db, q)
}

// VegaLiteContext is VegaLite for a caller that holds an operation's
// context: a fired render fault's event carries ctx's op ID.
func VegaLiteContext(ctx context.Context, db *dataset.Database, q *ast.Query) ([]byte, error) {
	if err := fault.InjectContext(ctx, fault.SiteRender); err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	res, err := dataset.Execute(db, q)
	if err != nil {
		return nil, err
	}
	spec, err := VegaLiteFromResult(q, res)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(spec, "", "  ")
}

// ECharts executes the vis query and renders an ECharts option object.
func ECharts(db *dataset.Database, q *ast.Query) ([]byte, error) {
	res, err := dataset.Execute(db, q)
	if err != nil {
		return nil, err
	}
	opt, err := EChartsFromResult(q, res)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(opt, "", "  ")
}

// axisInfo captures one encoded channel.
type axisInfo struct {
	field string
	typ   string // vega-lite type: nominal | temporal | quantitative
}

// channels derives the x/y/color channels from the query's select list.
func channels(q *ast.Query) (x, y axisInfo, color *axisInfo, err error) {
	if q == nil || !q.IsVis() {
		return x, y, nil, fmt.Errorf("render: not a vis tree")
	}
	sel := q.Left.Select
	if len(sel) < 2 {
		return x, y, nil, fmt.Errorf("render: vis tree needs at least x and y attributes")
	}
	x = axisInfo{field: sel[0].String(), typ: vegaType(q, sel[0], 0)}
	y = axisInfo{field: sel[1].String(), typ: vegaType(q, sel[1], 1)}
	if len(sel) > 2 {
		c := axisInfo{field: sel[2].String(), typ: "nominal"}
		color = &c
	}
	// Grouping scatter encodes the color via the grouping attribute when the
	// select list has only two entries.
	if color == nil && (q.Visualize == ast.GroupingScatter || q.Visualize == ast.GroupingLine || q.Visualize == ast.StackedBar) {
		for _, g := range q.Left.Groups {
			if g.Attr.Key() != stripAggKey(sel[0]) {
				c := axisInfo{field: g.Attr.String(), typ: "nominal"}
				color = &c
				break
			}
		}
	}
	return x, y, color, nil
}

func stripAggKey(a ast.Attr) string { return a.Key() }

// vegaType maps an attribute to a Vega-Lite field type. Binned or grouped x
// axes become nominal labels (the executor emits bin labels as strings);
// aggregates are quantitative.
func vegaType(q *ast.Query, a ast.Attr, pos int) string {
	if a.Agg != ast.AggNone {
		return "quantitative"
	}
	if pos == 0 {
		for _, g := range q.Left.Groups {
			if g.Attr.Key() == a.Key() && g.Kind == ast.Binning {
				return "nominal"
			}
		}
	}
	if q.Visualize == ast.Scatter || q.Visualize == ast.GroupingScatter {
		return "quantitative"
	}
	if pos == 0 {
		return "nominal"
	}
	return "quantitative"
}

func vegaMark(ct ast.ChartType) string {
	switch ct {
	case ast.Bar, ast.StackedBar:
		return "bar"
	case ast.Pie:
		return "arc"
	case ast.Line, ast.GroupingLine:
		return "line"
	case ast.Scatter, ast.GroupingScatter:
		return "point"
	default:
		// ChartNone never renders; "bar" is a harmless fallback.
		return "bar"
	}
}

// dataValues converts result rows into field->value records.
func dataValues(res *dataset.Result) []map[string]any {
	out := make([]map[string]any, 0, len(res.Rows))
	for _, row := range res.Rows {
		rec := make(map[string]any, len(row))
		for i, cell := range row {
			name := res.Columns[i]
			if cell.Null {
				rec[name] = nil
				continue
			}
			switch cell.Kind {
			case dataset.Quantitative:
				rec[name] = cell.Num
			default:
				rec[name] = cell.String()
			}
		}
		out = append(out, rec)
	}
	return out
}

// VegaLiteFromResult renders a Vega-Lite spec from an executed result.
func VegaLiteFromResult(q *ast.Query, res *dataset.Result) (map[string]any, error) {
	x, y, color, err := channels(q)
	if err != nil {
		return nil, err
	}
	spec := map[string]any{
		"$schema": "https://vega.github.io/schema/vega-lite/v5.json",
		"data":    map[string]any{"values": dataValues(res)},
		"mark":    vegaMark(q.Visualize),
	}
	enc := map[string]any{}
	if q.Visualize == ast.Pie {
		enc["theta"] = map[string]any{"field": y.field, "type": "quantitative"}
		enc["color"] = map[string]any{"field": x.field, "type": "nominal"}
	} else {
		xEnc := map[string]any{"field": x.field, "type": x.typ}
		if s := sortSpec(q, x, y); s != nil {
			xEnc["sort"] = s
		}
		enc["x"] = xEnc
		enc["y"] = map[string]any{"field": y.field, "type": y.typ}
		if color != nil {
			enc["color"] = map[string]any{"field": color.field, "type": color.typ}
		}
		if q.Visualize == ast.StackedBar {
			enc["y"].(map[string]any)["stack"] = "zero"
		}
	}
	spec["encoding"] = enc
	return spec, nil
}

// sortSpec renders the Order subtree as a Vega-Lite sort directive.
func sortSpec(q *ast.Query, x, y axisInfo) any {
	o := q.Left.Order
	if o == nil {
		return nil
	}
	field := o.Attr.String()
	prefix := ""
	if o.Dir == ast.Desc {
		prefix = "-"
	}
	switch field {
	case x.field:
		if o.Dir == ast.Desc {
			return "descending"
		}
		return "ascending"
	case y.field:
		return prefix + "y"
	}
	return nil
}

// EChartsFromResult renders an ECharts option object from an executed
// result.
func EChartsFromResult(q *ast.Query, res *dataset.Result) (map[string]any, error) {
	x, y, color, err := channels(q)
	if err != nil {
		return nil, err
	}
	switch q.Visualize {
	case ast.Pie:
		data := make([]map[string]any, 0, len(res.Rows))
		for _, row := range res.Rows {
			v, _ := row[1].Number()
			data = append(data, map[string]any{"name": row[0].String(), "value": v})
		}
		return map[string]any{
			"title":  map[string]any{"text": x.field + " proportion"},
			"series": []map[string]any{{"type": "pie", "data": data}},
		}, nil
	case ast.Scatter, ast.GroupingScatter:
		seriesMap := map[string][][]float64{}
		var order []string
		for _, row := range res.Rows {
			key := ""
			if color != nil && len(row) > 2 {
				key = row[2].String()
			}
			xv, _ := row[0].Number()
			yv, _ := row[1].Number()
			if _, ok := seriesMap[key]; !ok {
				order = append(order, key)
			}
			seriesMap[key] = append(seriesMap[key], []float64{xv, yv})
		}
		series := make([]map[string]any, 0, len(order))
		for _, k := range order {
			series = append(series, map[string]any{"type": "scatter", "name": k, "data": seriesMap[k]})
		}
		return map[string]any{
			"xAxis":  map[string]any{"type": "value", "name": x.field},
			"yAxis":  map[string]any{"type": "value", "name": y.field},
			"series": series,
		}, nil
	default: // bar, stacked bar, line, grouping line
		kind := "bar"
		if q.Visualize == ast.Line || q.Visualize == ast.GroupingLine {
			kind = "line"
		}
		// Collect categories in first-seen order, series split by color.
		var cats []string
		catIdx := map[string]int{}
		type seriesAcc struct {
			name string
			data []any
		}
		var acc []*seriesAcc
		accIdx := map[string]*seriesAcc{}
		getSeries := func(name string) *seriesAcc {
			if s, ok := accIdx[name]; ok {
				return s
			}
			s := &seriesAcc{name: name}
			accIdx[name] = s
			acc = append(acc, s)
			return s
		}
		for _, row := range res.Rows {
			cat := row[0].String()
			if _, ok := catIdx[cat]; !ok {
				catIdx[cat] = len(cats)
				cats = append(cats, cat)
			}
			name := y.field
			if color != nil && len(row) > 2 {
				name = row[2].String()
			}
			getSeries(name)
		}
		for _, s := range acc {
			s.data = make([]any, len(cats))
		}
		for _, row := range res.Rows {
			cat := row[0].String()
			name := y.field
			if color != nil && len(row) > 2 {
				name = row[2].String()
			}
			v, _ := row[1].Number()
			accIdx[name].data[catIdx[cat]] = v
		}
		series := make([]map[string]any, 0, len(acc))
		for _, s := range acc {
			m := map[string]any{"type": kind, "name": s.name, "data": s.data}
			if q.Visualize == ast.StackedBar {
				m["stack"] = "total"
			}
			series = append(series, m)
		}
		return map[string]any{
			"xAxis":  map[string]any{"type": "category", "data": cats, "name": x.field},
			"yAxis":  map[string]any{"type": "value", "name": y.field},
			"series": series,
		}, nil
	}
}
