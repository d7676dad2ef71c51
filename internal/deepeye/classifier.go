package deepeye

import (
	"math"
	"math/rand"
	"sync"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
)

// featureDim is the width of the numeric feature vector fed to the
// classifier: 16 base features plus, per chart type, interactions with the
// distinct-count and abs-correlation signals. The interactions let a linear
// model express per-type readability thresholds (a pie tolerates far fewer
// categories than a bar), which is what the visualization rules of thumb
// encode.
const featureDim = 17 + 7*5

// vectorize normalizes Features into the classifier's input space.
func vectorize(f Features) []float64 {
	v := make([]float64, featureDim)
	logDistinct := math.Log1p(float64(f.DistinctX)) / 8
	invDistinct := 0.0
	if f.DistinctX > 0 {
		invDistinct = 1 / float64(f.DistinctX)
	}
	absCorr := math.Abs(f.Correlation)
	v[0] = math.Log1p(float64(f.Tuples)) / 10
	v[1] = logDistinct
	v[2] = f.UniqueRatio
	v[3] = math.Log1p(math.Abs(f.MaxY-f.MinY)) / 15
	v[4] = f.Correlation
	// One-hot vis type.
	typeSlot := -1
	switch f.VisType {
	case ast.Bar:
		typeSlot = 0
	case ast.Pie:
		typeSlot = 1
	case ast.Line:
		typeSlot = 2
	case ast.Scatter:
		typeSlot = 3
	case ast.StackedBar:
		typeSlot = 4
	case ast.GroupingLine:
		typeSlot = 5
	case ast.GroupingScatter:
		typeSlot = 6
	default:
		// ChartNone has no one-hot slot; typeSlot stays -1.
	}
	if typeSlot >= 0 {
		v[5+typeSlot] = 1
	}
	// One-hot x type; y type folded into a single quantitative bit.
	switch f.XType {
	case dataset.Categorical:
		v[12] = 1
	case dataset.Temporal:
		v[13] = 1
	case dataset.Quantitative:
		v[14] = 1
	}
	if f.YType == dataset.Quantitative {
		v[15] = 1
	}
	v[16] = invDistinct
	// Per-type interactions; the quadratic distinct term lets the linear
	// model carve the upper bound of acceptable category counts per chart
	// type, and the inverse term the lower bound (single-category charts).
	if typeSlot >= 0 {
		base := 17 + typeSlot*5
		v[base] = logDistinct
		v[base+1] = logDistinct * logDistinct
		v[base+2] = f.UniqueRatio
		v[base+3] = absCorr
		v[base+4] = invDistinct
	}
	return v
}

// hiddenUnits is the width of the classifier's single hidden layer.
const hiddenUnits = 24

// Classifier is the good/bad chart model: a small one-hidden-layer network
// over the engineered features — the "trained binary classifier" of
// DeepEye's pipeline. A linear model cannot carve the per-type category
// bands sharply enough (its recall on valid mid-size bars stalls around
// 85%, starving whole query intents of candidates), so the reproduction
// uses the smallest nonlinear member of the family.
type Classifier struct {
	W1 [][]float64 // hiddenUnits × featureDim
	B1 []float64
	W2 []float64 // hiddenUnits
	B2 float64
}

// forward returns the hidden activations and output probability.
func (c *Classifier) forward(x []float64) ([]float64, float64) {
	h := make([]float64, hiddenUnits)
	for j := 0; j < hiddenUnits; j++ {
		z := c.B1[j]
		row := c.W1[j]
		for i, xi := range x {
			z += row[i] * xi
		}
		h[j] = math.Tanh(z)
	}
	z := c.B2
	for j, hj := range h {
		z += c.W2[j] * hj
	}
	return h, 1 / (1 + math.Exp(-z))
}

// Score returns the probability that the chart is good.
func (c *Classifier) Score(f Features) float64 {
	_, p := c.forward(vectorize(f))
	return p
}

// Predict reports whether the chart is classified good (score ≥ 0.5).
func (c *Classifier) Predict(f Features) bool { return c.Score(f) >= 0.5 }

// Example is one labeled training chart.
type Example struct {
	F    Features
	Good bool
}

// Train fits the network with plain SGD and hand-derived gradients (the
// model is small enough that the autodiff substrate would be overkill).
func Train(examples []Example, epochs int, lr float64, seed int64) *Classifier {
	r := rand.New(rand.NewSource(seed))
	c := &Classifier{
		W1: make([][]float64, hiddenUnits),
		B1: make([]float64, hiddenUnits),
		W2: make([]float64, hiddenUnits),
	}
	bound := math.Sqrt(6.0 / float64(featureDim+hiddenUnits))
	for j := range c.W1 {
		c.W1[j] = make([]float64, featureDim)
		for i := range c.W1[j] {
			c.W1[j][i] = (r.Float64()*2 - 1) * bound
		}
		c.W2[j] = (r.Float64()*2 - 1) * bound
	}
	if len(examples) == 0 {
		return c
	}
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			ex := examples[i]
			x := vectorize(ex.F)
			h, p := c.forward(x)
			y := 0.0
			if ex.Good {
				y = 1
			}
			gOut := p - y // dL/dz2 for cross-entropy + sigmoid
			for j := 0; j < hiddenUnits; j++ {
				gH := gOut * c.W2[j] * (1 - h[j]*h[j]) // through tanh
				c.W2[j] -= lr * gOut * h[j]
				row := c.W1[j]
				for i2, xi := range x {
					row[i2] -= lr * gH * xi
				}
				c.B1[j] -= lr * gH
			}
			c.B2 -= lr * gOut
		}
	}
	return c
}

// Accuracy evaluates the classifier on a labeled set.
func (c *Classifier) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	ok := 0
	for _, ex := range examples {
		if c.Predict(ex.F) == ex.Good {
			ok++
		}
	}
	return float64(ok) / float64(len(examples))
}

// goldLabel is the latent quality rule behind the synthetic corpus: it
// encodes the visualization community's rules of thumb with softer
// thresholds than the hard rule layer, so the classifier learns a gradated
// boundary.
func goldLabel(f Features) bool {
	ok, _ := RuleCheck(f)
	if !ok {
		return false
	}
	switch f.VisType {
	case ast.Pie:
		return f.DistinctX >= 2 && f.DistinctX <= 8
	case ast.Bar:
		return f.DistinctX >= 2 && f.DistinctX <= 25
	case ast.StackedBar:
		return f.DistinctX >= 2 && f.DistinctX <= 20
	case ast.Line, ast.GroupingLine:
		return f.Tuples >= 3 && f.XType != dataset.Categorical
	case ast.Scatter, ast.GroupingScatter:
		return f.Tuples >= 8 && math.Abs(f.Correlation) > 0.05
	default:
		// ChartNone is never a valid chart.
		return false
	}
}

// SyntheticTrainingSet generates a labeled chart corpus by sampling feature
// space and labeling with goldLabel plus labelNoise flip probability. This
// substitutes for DeepEye's 2,520/30,892 hand-labeled charts.
func SyntheticTrainingSet(n int, labelNoise float64, seed int64) []Example {
	r := rand.New(rand.NewSource(seed))
	types := []dataset.ColType{dataset.Categorical, dataset.Temporal, dataset.Quantitative}
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		var f Features
		f.VisType = ast.ChartTypes[r.Intn(len(ast.ChartTypes))]
		switch f.VisType {
		case ast.Scatter, ast.GroupingScatter:
			// Raw points: tuples span 1..~1100, x nearly unique.
			f.Tuples = 1 + int(math.Exp(r.Float64()*7))
			f.DistinctX = 1 + r.Intn(f.Tuples)
		default:
			// Grouped charts: one row per group, so tuples track the
			// distinct-x count, which is usually small after grouping.
			f.DistinctX = 1 + int(math.Exp(r.Float64()*4.5)) // 1 .. ~90
			f.Tuples = f.DistinctX
			if f.VisType == ast.StackedBar || f.VisType == ast.GroupingLine {
				f.Tuples = f.DistinctX * (1 + r.Intn(6)) // x × color combos
			}
		}
		f.UniqueRatio = float64(f.DistinctX) / float64(f.Tuples)
		f.XType = types[r.Intn(len(types))]
		f.YType = types[r.Intn(len(types))]
		if r.Float64() < 0.8 {
			f.YType = dataset.Quantitative // most candidates aggregate
		}
		f.MinY = r.Float64() * 100
		// Measure ranges span unit-scale averages to national-scale sums.
		f.MaxY = f.MinY + math.Exp(r.Float64()*14)
		f.Correlation = r.Float64()*2 - 1
		good := goldLabel(f)
		if r.Float64() < labelNoise {
			good = !good
		}
		out = append(out, Example{F: f, Good: good})
	}
	return out
}

// Filter is the full DeepEye M(v): expert rules then the trained
// classifier. NewFilter trains deterministically on the synthetic corpus.
type Filter struct {
	Clf *Classifier
	// degraded counts classifier failures absorbed by the rules-only
	// fallback (see PredictSafe).
	degraded degradeCounter
}

var (
	defaultClfOnce sync.Once
	defaultClf     *Classifier
)

// NewFilter builds the default filter: a classifier trained on a 6,000
// example synthetic corpus with 5% label noise. The training is
// deterministic, so the classifier is fitted once per process and shared
// (it is read-only after training); each call still returns a fresh Filter
// so its degraded-call count stays caller-local.
func NewFilter() *Filter {
	defaultClfOnce.Do(func() {
		examples := SyntheticTrainingSet(6000, 0.05, 99)
		defaultClf = Train(examples, 25, 0.05, 7)
	})
	return &Filter{Clf: defaultClf}
}

// Good runs M(v) on a candidate vis query: rules first, classifier second.
// It returns the verdict, a reason for rejections, and the executed result
// (so callers can reuse it).
func (fl *Filter) Good(db *dataset.Database, q *ast.Query) (bool, string, *dataset.Result, error) {
	f, res, err := Extract(db, q)
	if err != nil {
		return false, "", nil, err
	}
	ok, reason := fl.Judge(f)
	return ok, reason, res, nil
}

// Judge runs M(v) on a featurized candidate: rules, then the classifier
// (see PredictSafe); the nil filter, the filter-off ablation, stops at
// the rules. It returns the verdict and a reason for rejections.
func (fl *Filter) Judge(f Features) (bool, string) {
	if ok, reason := RuleCheck(f); !ok {
		return false, reason
	}
	if fl != nil {
		if good, _ := fl.PredictSafe(f); !good {
			return false, "classifier: low quality score"
		}
	}
	return true, ""
}
