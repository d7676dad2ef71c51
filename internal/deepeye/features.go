// Package deepeye reproduces the two DeepEye roles the paper uses:
//
//  1. The chart-quality filter M(v) of Section 2.4 — an expert-rule layer
//     that removes invalid or obviously bad charts, followed by a trained
//     binary classifier that scores the remainder. The paper's classifier
//     was trained on 2,520/30,892 labeled charts; here the same model family
//     (logistic regression over the same feature recipe) is trained in-repo
//     on a synthetic labeled corpus generated from the rules plus noise (see
//     DESIGN.md substitutions).
//  2. The DeepEye baseline of Section 4.4 — a keyword-search rule method
//     that proposes top-k visualizations for an NL query without learning,
//     and that cannot handle Join, Nested or Filter queries.
package deepeye

import (
	"fmt"
	"math"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
	"nvbench/internal/fault"
	"nvbench/internal/stats"
)

// Features is the classifier's view of one candidate visualization, using
// the paper's feature list: the number of distinct values, the number of
// tuples, the ratio of unique values, max and min values, data types,
// attribute correlations, and the vis type.
type Features struct {
	VisType     ast.ChartType
	Tuples      int     // rows in the executed result
	DistinctX   int     // distinct x values
	UniqueRatio float64 // DistinctX / Tuples
	MinY, MaxY  float64 // numeric range of the y series
	XType       dataset.ColType
	YType       dataset.ColType
	Correlation float64 // Pearson correlation between x and y when both numeric
}

// Extract executes the query and derives the feature vector. The select
// list is expected in [x, y, (z)] order, the layout the synthesizer emits.
func Extract(db *dataset.Database, q *ast.Query) (Features, *dataset.Result, error) {
	res, err := Execute(db, q)
	if err != nil {
		return Features{}, nil, err
	}
	return FromResult(db, q, res), res, nil
}

// Execute runs the query whose result Extract featurizes; the execute
// fault site fires first.
func Execute(db *dataset.Database, q *ast.Query) (*dataset.Result, error) {
	if err := fault.Inject(fault.SiteExecute); err != nil {
		return nil, fmt.Errorf("deepeye: %w", err)
	}
	return dataset.Execute(db, q)
}

// FromResult derives features from an already executed result.
func FromResult(db *dataset.Database, q *ast.Query, res *dataset.Result) Features {
	f := Features{VisType: q.Visualize, Tuples: len(res.Rows)}
	cores := q.Cores()
	if len(cores) > 0 {
		sel := cores[0].Select
		if len(sel) > 0 {
			f.XType = attrType(db, sel[0])
		}
		if len(sel) > 1 {
			f.YType = attrType(db, sel[1])
		}
	}
	if len(res.Rows) == 0 {
		return f
	}
	distinct := map[string]bool{}
	var xs, ys []float64
	for _, row := range res.Rows {
		distinct[row[0].String()] = true
		if v, ok := row[0].Number(); ok {
			xs = append(xs, v)
		}
		if len(row) > 1 {
			if v, ok := row[1].Number(); ok {
				ys = append(ys, v)
			}
		}
	}
	f.DistinctX = len(distinct)
	f.UniqueRatio = float64(f.DistinctX) / float64(f.Tuples)
	if len(ys) > 0 {
		f.MinY, f.MaxY = ys[0], ys[0]
		for _, v := range ys {
			f.MinY = math.Min(f.MinY, v)
			f.MaxY = math.Max(f.MaxY, v)
		}
	}
	if len(xs) == len(ys) && len(xs) > 1 {
		f.Correlation = stats.Correlation(xs, ys)
	}
	return f
}

// attrType resolves an attribute's visual data type: aggregates always
// produce quantitative values.
func attrType(db *dataset.Database, a ast.Attr) dataset.ColType {
	if a.Agg != ast.AggNone {
		return dataset.Quantitative
	}
	return db.ColumnType(a.Table, a.Column)
}

// Rule thresholds of the expert layer. Values follow the visualization
// rules of thumb the paper cites (Mackinlay's Show Me and Voyager).
const (
	MaxPieSlices   = 12
	MaxBarBars     = 50
	MaxLinePoints  = 3000
	MinScatterPts  = 3
	MinChartPoints = 2
)

// RuleCheck is the expert-rule layer: it rejects invalid or obviously bad
// charts and returns the reason. The four failure families of Section 2.4:
// single-value results, pies with too many slices, bars with too many
// categories, and line charts over two qualitative variables.
func RuleCheck(f Features) (bool, string) {
	if f.Tuples == 0 {
		return false, "empty result"
	}
	if f.Tuples == 1 && f.VisType != ast.Pie {
		return false, "single value: better shown as a table"
	}
	switch f.VisType {
	case ast.Pie:
		if f.Tuples < MinChartPoints {
			return false, "single value: better shown as a table"
		}
		if f.DistinctX > MaxPieSlices {
			return false, fmt.Sprintf("pie with %d slices is unreadable", f.DistinctX)
		}
		if f.YType != dataset.Quantitative {
			return false, "pie needs a quantitative measure"
		}
	case ast.Bar, ast.StackedBar:
		if f.DistinctX > MaxBarBars {
			return false, fmt.Sprintf("bar chart with %d categories is unreadable", f.DistinctX)
		}
		if f.YType != dataset.Quantitative {
			return false, "bar needs a quantitative measure"
		}
	case ast.Line, ast.GroupingLine:
		if f.XType == dataset.Categorical && f.YType == dataset.Categorical {
			return false, "line chart with two qualitative variables"
		}
		if f.YType == dataset.Categorical {
			return false, "line chart with a qualitative measure"
		}
		if f.Tuples > MaxLinePoints {
			return false, "line chart with too many points"
		}
	case ast.Scatter, ast.GroupingScatter:
		if f.XType != dataset.Quantitative || f.YType != dataset.Quantitative {
			return false, "scatter needs two quantitative variables"
		}
		if f.Tuples < MinScatterPts {
			return false, "too few points for a scatter"
		}
	case ast.ChartNone:
		return false, "no visualization type"
	}
	return true, ""
}
