// Package nledit implements the NL synthesis step of Section 2.5: given the
// NL query of the source SQL and the edit script Δ that produced a vis tree,
// it rewrites the NL to reflect the insertions (Visualize, Group, Binning,
// Aggregate, Order) using the paper's phrase rule tables, generates several
// NL variants per vis query (the data-augmentation role), and smooths the
// rule-inserted text with a deterministic back-translation-style paraphrase
// pass (substituting for the external MT round trip; see DESIGN.md).
//
// Deletion edits cannot be reflected automatically — the paper routed those
// ~25% of vis objects to two PhD students for manual revision. Variants for
// such trees are produced by re-describing the vis query from a template
// (simulating the revised text) and flagged Manual so the man-hour
// accounting of Section 3.3 can count them.
package nledit

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"nvbench/internal/ast"
	"nvbench/internal/core"
)

// Variant is one synthesized NL specification.
type Variant struct {
	Text string
	// Manual marks variants produced by template re-description because the
	// edit script contained deletions (the paper's manual-revision path).
	Manual bool
}

// Editor synthesizes NL variants.
type Editor struct {
	// Variants per vis query; the paper averages 3.746 (Table 3).
	NumVariants int
	// Smooth applies the back-translation-style paraphrase pass; turning it
	// off is the no-smoothing ablation.
	Smooth bool
	// Seed feeds the deterministic per-query RNG.
	Seed int64
}

// New returns an editor with the paper's defaults.
func New(seed int64) *Editor {
	return &Editor{NumVariants: 4, Smooth: true, Seed: seed}
}

// rngPool holds reseedable RNGs over lazySource. Seeding a pooled one
// gives the same stream as a fresh rand.New(rand.NewSource(seed)) without
// allocating a new ~5 KB source or filling its whole register per vis
// query.
var rngPool = sync.Pool{New: func() any { return rand.New(&lazySource{}) }}

// rngFor derives a deterministic RNG from the editor seed and the vis tree,
// so the same query always yields the same variants regardless of synthesis
// order. The seed is the FNV-1a hash of "<Seed>|<vis>". The caller returns
// the RNG to rngPool when done with it.
func (e *Editor) rngFor(vis *ast.Query) *rand.Rand {
	v := vis.String()
	key := strconv.AppendInt(make([]byte, 0, 21+len(v)), e.Seed, 10)
	key = append(append(key, '|'), v...)
	h := fnv.New64a()
	h.Write(key)
	r := rngPool.Get().(*rand.Rand)
	r.Seed(int64(h.Sum64()))
	return r
}

// Phrase rule tables (Section 2.5). The first table mirrors the paper's
// published examples verbatim where given.
var visPhrases = map[ast.ChartType][]string{
	ast.Bar:             {"draw a bar chart", "plot a bar chart", "visualize with a bar chart", "show a bar graph"},
	ast.Pie:             {"draw a pie chart", "show the proportion", "plot a pie chart", "give me a pie"},
	ast.Line:            {"draw a line chart", "show the trend", "plot a line graph", "visualize as a line chart"},
	ast.Scatter:         {"draw a scatter plot", "show the correlation", "plot a scatter chart", "visualize the relationship"},
	ast.StackedBar:      {"draw a stacked bar chart", "plot a stacked bar chart", "show stacked bars"},
	ast.GroupingLine:    {"draw a grouping line chart", "plot one line per group", "show grouped trends"},
	ast.GroupingScatter: {"draw a grouping scatter plot", "plot a colored scatter chart", "show a scatter colored by group"},
}

var orderPhrases = []string{"order by %s in %s order", "sort by %s %s", "list by %s in %s order", "rank by %s %s"}

var groupPhrases = []string{"for each %s", "by each %s", "per %s", "grouped by %s"}

var binPhrases = []string{"with a bin of one %s", "in buckets of a %s", "binned by %s", "bucketed per %s"}

var countPhrases = []string{"count the number of records", "how many are there", "show how many"}

var aggPhrases = map[ast.AggFunc][]string{
	ast.AggSum:   {"sum the %s", "show the total %s"},
	ast.AggAvg:   {"average the %s", "show the mean %s"},
	ast.AggMax:   {"show the maximum %s", "take the largest %s"},
	ast.AggMin:   {"show the minimum %s", "take the smallest %s"},
	ast.AggCount: {"count the %s", "show the number of %s"},
}

// Variants synthesizes NL variants for one vis query.
func (e *Editor) Variants(nl string, vis *ast.Query, edit core.Edit) []Variant {
	n := e.NumVariants
	if n <= 0 {
		n = 4
	}
	r := e.rngFor(vis)
	defer rngPool.Put(r)
	// ±1 variant of jitter reproduces the non-uniform variants-per-vis
	// distribution of Table 3.
	n += r.Intn(3) - 1
	if n < 2 {
		n = 2
	}
	manual := edit.HasDeletions()
	seen := map[string]bool{}
	var out []Variant
	dups := 0
	for len(out) < n {
		var text string
		if manual {
			text = e.describe(vis, r)
		} else {
			text = e.applyInsertions(nl, vis, edit, r)
		}
		if e.Smooth {
			text = Smooth(text, r)
		}
		text = tidy(text)
		if seen[text] {
			// Exhausted phrasing space: after 3n duplicate draws, accept a
			// duplicate-free shorter list.
			if dups++; dups >= 3*n {
				break
			}
			continue
		}
		seen[text] = true
		// Keep an exact-size copy: text can share a strings.Builder buffer
		// with spare capacity, which a kept variant would pin for the life
		// of the benchmark.
		out = append(out, Variant{Text: strings.Clone(text), Manual: manual})
	}
	return out
}

// applyInsertions rewrites the source NL to reflect Δ⁺ with phrase rules
// (Example 5 of the paper: prefix "show the proportion about" to the pie's
// source question).
func (e *Editor) applyInsertions(nl string, vis *ast.Query, edit core.Edit, r *rand.Rand) string {
	base := strings.TrimRight(strings.TrimSpace(nl), ".!?")
	var suffixes []string
	visInserted := false
	// Deletions (Δ⁻) match no case: only Δ⁺ rewrites the question here.
	for _, op := range edit.Ops {
		switch op.Kind {
		case core.InsertVisualize:
			visInserted = true
		case core.InsertGroup:
			if !mentionsWord(base, op.Attr.Column) {
				suffixes = append(suffixes, fmt.Sprintf(pickPhrase(r, groupPhrases), word(op.Attr.Column)))
			}
		case core.InsertBin:
			if op.Group != nil {
				unit := binUnitWord(op.Group.Bin)
				suffixes = append(suffixes, fmt.Sprintf(pickPhrase(r, binPhrases), unit))
			}
		case core.InsertAgg:
			if op.Attr.Agg == ast.AggCount && op.Attr.Column == "*" {
				if !mentionsAny(base, "how many", "count", "number of") {
					suffixes = append(suffixes, pickPhrase(r, countPhrases))
				}
			} else if phrases, ok := aggPhrases[op.Attr.Agg]; ok {
				if !mentionsWord(base, op.Attr.Column) || !mentionsAny(base, aggWords(op.Attr.Agg)...) {
					suffixes = append(suffixes, fmt.Sprintf(pickPhrase(r, phrases), word(op.Attr.Column)))
				}
			}
		case core.InsertOrder:
			if op.Order != nil {
				dir := "ascending"
				if op.Order.Dir == ast.Desc {
					dir = "descending"
				}
				suffixes = append(suffixes, fmt.Sprintf(pickPhrase(r, orderPhrases), attrWord(op.Order.Attr), dir))
			}
		}
	}
	var sb strings.Builder
	if visInserted {
		phrase := pickPhrase(r, visPhrases[vis.Visualize])
		switch r.Intn(4) {
		case 0:
			// Prefix form: "Show the proportion about <question>".
			sb.WriteString(upperFirst(phrase))
			sb.WriteString(" about ")
			sb.WriteString(lowerFirst(base))
		case 1:
			sb.WriteString(upperFirst(base))
			sb.WriteString(", and ")
			sb.WriteString(phrase)
		case 2:
			// "Draw a bar chart of the flights per origin" — the dashboard
			// phrasing; the leading verb of the source question is dropped.
			sb.WriteString(upperFirst(phrase))
			sb.WriteString(" of ")
			sb.WriteString(stripLeadVerb(base))
		default:
			sb.WriteString(upperFirst(phrase))
			sb.WriteString(": ")
			sb.WriteString(lowerFirst(base))
		}
	} else {
		sb.WriteString(upperFirst(base))
	}
	for _, s := range suffixes {
		sb.WriteString(", ")
		sb.WriteString(s)
	}
	sb.WriteString(".")
	return sb.String()
}

// describe re-describes a vis query from scratch; this simulates the manual
// NL revision the paper applies when deletions break the source NL.
func (e *Editor) describe(vis *ast.Query, r *rand.Rand) string {
	core := vis.Left
	var sb strings.Builder
	parts := make([]string, 0, len(core.Select))
	for _, a := range core.Select {
		parts = append(parts, attrPhrase(a))
	}
	attrs := strings.Join(parts, " and ")
	source := word(core.Tables[0])
	visPhrase := pickPhrase(r, visPhrases[vis.Visualize])
	// Vary the sentence frame so variants for the same vis diverge the way
	// independently written questions would.
	switch r.Intn(4) {
	case 0:
		sb.WriteString(upperFirst(visPhrase))
		sb.WriteString(" of ")
		sb.WriteString(attrs)
		sb.WriteString(" from the ")
		sb.WriteString(source)
		sb.WriteString(" data")
	case 1:
		sb.WriteString("For the ")
		sb.WriteString(source)
		sb.WriteString(" records, ")
		sb.WriteString(visPhrase)
		sb.WriteString(" showing ")
		sb.WriteString(attrs)
	case 2:
		sb.WriteString("I want ")
		sb.WriteString(attrs)
		sb.WriteString(" across the ")
		sb.WriteString(source)
		sb.WriteString(" table, and ")
		sb.WriteString(visPhrase)
	default:
		sb.WriteString("Using the ")
		sb.WriteString(source)
		sb.WriteString(" data, ")
		sb.WriteString(visPhrase)
		sb.WriteString(" of ")
		sb.WriteString(attrs)
	}
	for _, g := range core.Groups {
		if g.Kind == ast.Binning {
			sb.WriteString(fmt.Sprintf(", binned by %s", binUnitWord(g.Bin)))
		} else {
			sb.WriteString(fmt.Sprintf(", %s", fmt.Sprintf(pickPhrase(r, groupPhrases), word(g.Attr.Column))))
		}
	}
	if core.Filter != nil {
		sb.WriteString(", for rows where ")
		sb.WriteString(filterPhrase(core.Filter))
	}
	if core.Order != nil {
		dir := "ascending"
		if core.Order.Dir == ast.Desc {
			dir = "descending"
		}
		sb.WriteString(fmt.Sprintf(", sorted by %s in %s order", attrWord(core.Order.Attr), dir))
	}
	if core.Superlative != nil {
		kind := "lowest"
		if core.Superlative.Most {
			kind = "highest"
		}
		sb.WriteString(fmt.Sprintf(", for the %d %s values of %s", core.Superlative.K, kind, word(core.Superlative.Attr.Column)))
	}
	sb.WriteString(".")
	return sb.String()
}

// filterPhrase verbalizes a filter tree, keeping literal values verbatim so
// the value-filling heuristic of seq2vis can recover them (the paper notes
// its NL queries are well-specified).
func filterPhrase(f *ast.Filter) string {
	if f == nil {
		return ""
	}
	switch f.Op {
	case ast.FilterAnd:
		return filterPhrase(f.Left) + " and " + filterPhrase(f.Right)
	case ast.FilterOr:
		return filterPhrase(f.Left) + " or " + filterPhrase(f.Right)
	default:
		// Every other operator is a leaf predicate, phrased below.
	}
	attr := attrWord(f.Attr)
	if f.Sub != nil {
		switch f.Op {
		case ast.FilterIn:
			return attr + " is in the related set"
		case ast.FilterNotIn:
			return attr + " is not in the related set"
		default:
			return attr + " is " + opWord(f.Op) + " the subquery result"
		}
	}
	vals := make([]string, 0, len(f.Values))
	for _, v := range f.Values {
		if v.Kind == ast.ValueNumber {
			vals = append(vals, v.String())
		} else {
			vals = append(vals, v.Str)
		}
	}
	switch f.Op {
	case ast.FilterBetween:
		if len(vals) == 2 {
			return fmt.Sprintf("%s is between %s and %s", attr, vals[0], vals[1])
		}
	case ast.FilterIn, ast.FilterNotIn:
		neg := ""
		if f.Op == ast.FilterNotIn {
			neg = "not "
		}
		return fmt.Sprintf("%s is %sone of %s", attr, neg, strings.Join(vals, ", "))
	default:
		// Comparison operators (and a malformed between) are phrased below.
	}
	if len(vals) == 1 {
		return fmt.Sprintf("%s is %s %s", attr, opWord(f.Op), vals[0])
	}
	return attr + " matches the condition"
}

func opWord(op ast.FilterOp) string {
	switch op {
	case ast.FilterGT:
		return "greater than"
	case ast.FilterLT:
		return "less than"
	case ast.FilterGE:
		return "at least"
	case ast.FilterLE:
		return "at most"
	case ast.FilterEQ:
		return "equal to"
	case ast.FilterNE:
		return "different from"
	case ast.FilterLike:
		return "like"
	case ast.FilterNotLike:
		return "not like"
	default:
		// Connectives and multi-value predicates have no comparison word;
		// fall back to the canonical spelling.
		return op.String()
	}
}

// attrWord renders an attribute for NL, replacing the COUNT(*) star with a
// readable phrase.
func attrWord(a ast.Attr) string {
	if a.Column == "*" {
		return "the record count"
	}
	return word(a.Column)
}

func attrPhrase(a ast.Attr) string {
	if a.Agg == ast.AggCount && a.Column == "*" {
		return "the number of records"
	}
	if a.Agg != ast.AggNone {
		return fmt.Sprintf("the %s %s", aggWords(a.Agg)[0], word(a.Column))
	}
	return "the " + word(a.Column)
}

func aggWords(a ast.AggFunc) []string {
	switch a {
	case ast.AggSum:
		return []string{"total", "sum"}
	case ast.AggAvg:
		return []string{"average", "mean"}
	case ast.AggMax:
		return []string{"maximum", "largest"}
	case ast.AggMin:
		return []string{"minimum", "smallest"}
	case ast.AggCount:
		return []string{"number of", "count"}
	default:
		// AggNone: a bare column has no aggregate word.
		return []string{""}
	}
}

func binUnitWord(u ast.BinUnit) string {
	switch u {
	case ast.BinMinute:
		return "minute"
	case ast.BinHour:
		return "hour"
	case ast.BinWeekday:
		return "day of the week"
	case ast.BinMonth:
		return "month"
	case ast.BinQuarter:
		return "quarter"
	case ast.BinYear:
		return "year"
	case ast.BinNumeric:
		return "equal-width bucket"
	default:
		// BinNone: a generic word keeps malformed groups readable.
		return "bucket"
	}
}

func pickPhrase(r *rand.Rand, options []string) string {
	if len(options) == 0 {
		return ""
	}
	return options[r.Intn(len(options))]
}

func word(col string) string { return strings.ReplaceAll(col, "_", " ") }

func mentionsWord(s, col string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(word(col)))
}

func mentionsAny(s string, words ...string) bool {
	ls := strings.ToLower(s)
	for _, w := range words {
		if strings.Contains(ls, w) {
			return true
		}
	}
	return false
}

// stripLeadVerb removes a leading imperative or interrogative opener so the
// remainder reads as a noun phrase ("show the deaths per country" → "the
// deaths per country").
func stripLeadVerb(s string) string {
	low := strings.ToLower(s)
	for _, prefix := range []string{
		"show me ", "show ", "list ", "find ", "display ", "give me ",
		"get ", "plot ", "draw ", "what are ", "what is ", "which are ",
	} {
		if strings.HasPrefix(low, prefix) {
			return lowerFirst(s[len(prefix):])
		}
	}
	return lowerFirst(s)
}

// upperFirst upper-cases the first rune of s.
func upperFirst(s string) string {
	r, n := utf8.DecodeRuneInString(s)
	if u := unicode.ToUpper(r); r != utf8.RuneError && u != r {
		return string(u) + s[n:]
	}
	return s
}

// lowerFirst lower-cases the first rune of s, unless the second is an ASCII
// capital.
func lowerFirst(s string) string {
	r, n := utf8.DecodeRuneInString(s)
	// Keep acronyms and proper-noun-looking openings intact.
	if len(s) > n && s[n] >= 'A' && s[n] <= 'Z' {
		return s
	}
	if l := unicode.ToLower(r); r != utf8.RuneError && l != r {
		return string(l) + s[n:]
	}
	return s
}

// tidy fixes the punctuation and spacing artifacts of rule concatenation —
// the defects study participants flagged (multiple punctuation marks,
// underscores).
func tidy(s string) string {
	s = strings.ReplaceAll(s, "_", " ")
	s = strings.ReplaceAll(s, " ,", ",")
	s = strings.ReplaceAll(s, ",,", ",")
	s = strings.ReplaceAll(s, "?.", "?")
	s = strings.ReplaceAll(s, "..", ".")
	s = strings.ReplaceAll(s, ".,", ",")
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	return strings.TrimSpace(s)
}
