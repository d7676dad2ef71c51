// Package core implements the paper's primary contribution: the
// nl2sql-to-nl2vis synthesizer of Section 2. Given an SQL tree it performs
// tree edits — deletions Δ⁻ over the Select and Order subtrees, insertions
// Δ⁺ of Group/Binning (+aggregate), Visualize and Order subtrees — to
// enumerate candidate vis trees, then filters bad charts with the DeepEye
// model (package deepeye). The recorded edit script drives the NL synthesis
// step (package nledit).
package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
	"nvbench/internal/deepeye"
	"nvbench/internal/fault"
	"nvbench/internal/obs"
)

// EditKind labels one tree-edit operation.
type EditKind int

// Edit kinds. Delete* operations form Δ⁻, Insert* operations Δ⁺.
const (
	DeleteSelect EditKind = iota
	DeleteOrder
	InsertGroup
	InsertBin
	InsertAgg
	InsertVisualize
	InsertOrder
)

func (k EditKind) String() string {
	switch k {
	case DeleteSelect:
		return "delete-select"
	case DeleteOrder:
		return "delete-order"
	case InsertGroup:
		return "insert-group"
	case InsertBin:
		return "insert-bin"
	case InsertAgg:
		return "insert-agg"
	case InsertVisualize:
		return "insert-visualize"
	case InsertOrder:
		return "insert-order"
	}
	return "edit"
}

// EditOp is one node-level edit with its payload.
type EditOp struct {
	Kind  EditKind
	Attr  ast.Attr      // the affected attribute (select/order/agg edits)
	Group *ast.Group    // inserted group/bin node
	Chart ast.ChartType // inserted Visualize node
	Order *ast.Order    // inserted Order node
}

// IsDeletion reports whether the op belongs to Δ⁻.
func (op EditOp) IsDeletion() bool { return op.Kind == DeleteSelect || op.Kind == DeleteOrder }

// Edit is the edit script Δ from the SQL tree to one vis tree.
type Edit struct {
	Ops []EditOp
}

// HasDeletions reports whether the script deletes anything — the cases the
// paper routes to manual NL revision (Section 2.5).
func (e Edit) HasDeletions() bool {
	for _, op := range e.Ops {
		if op.IsDeletion() {
			return true
		}
	}
	return false
}

// Candidate is one synthesized vis tree with its edit script.
type Candidate struct {
	Query  *ast.Query
	Edit   Edit
	Source *ast.Query
	// text is Query's canonical token line, rendered once by Candidates
	// for its dedupe key; synthesize takes the execution key from it.
	text string
}

// VisObject is a candidate that survived filtering, with its execution
// artifacts attached. Result may be shared with other candidates of the
// same pair whose trees differ only in their chart type, so it is
// read-only. Nothing writes it: deepeye.FromResult and the render
// package's *FromResult functions only read a result, and bench's
// diverseTruncate reads only each object's chart type.
type VisObject struct {
	Candidate
	Features deepeye.Features
	Result   *dataset.Result
	Hardness ast.Hardness
}

// Rejection records a filtered-out candidate and why.
type Rejection struct {
	Query  *ast.Query
	Reason string
}

// Synthesizer converts one (nl, sql) pair's SQL tree into good vis trees.
type Synthesizer struct {
	// Filter is the DeepEye chart-quality model; nil keeps every candidate
	// that passes RuleCheck (the filter-off ablation).
	Filter *deepeye.Filter
	// NumBins is the numeric binning bucket count (paper default 10).
	NumBins int
	// MaxCandidates bounds enumeration per SQL tree.
	MaxCandidates int
	// Aggregates to enumerate when inserting an aggregate node over a raw
	// quantitative measure.
	Aggregates []ast.AggFunc
	// Obs receives one timed record per stage (treeedit, execute,
	// deepeye).
	// Nil disables instrumentation; metrics never influence synthesis
	// output, so an instrumented run stays byte-identical to a bare one.
	Obs *obs.Instruments
}

// New builds a synthesizer with the paper's defaults and a trained DeepEye
// filter.
func New() *Synthesizer {
	return &Synthesizer{
		Filter:        deepeye.NewFilter(),
		NumBins:       ast.DefaultNumBins,
		MaxCandidates: 64,
		Aggregates:    []ast.AggFunc{ast.AggSum, ast.AggAvg},
	}
}

// Synthesize runs the full Section 2.3 + 2.4 pipeline on one SQL tree and
// returns the kept vis objects plus the rejected candidates. A panic
// anywhere in the pipeline (a malformed tree hitting a synthesizer bug, or
// an injected fault) is recovered and surfaced as the returned error, so
// one bad pair can never abort a whole benchmark build.
func (s *Synthesizer) Synthesize(db *dataset.Database, sql *ast.Query) (kept []*VisObject, rejected []Rejection, err error) {
	return s.SynthesizeCtx(context.Background(), db, sql)
}

// SynthesizeCtx is Synthesize with a caller context, so the stage events
// (treeedit, execute, deepeye) carry the caller's op ID — one trace track
// per source pair in a traced build.
func (s *Synthesizer) SynthesizeCtx(ctx context.Context, db *dataset.Database, sql *ast.Query) (kept []*VisObject, rejected []Rejection, err error) {
	err = fault.Safely("core/synthesize", func() error {
		kept, rejected, err = s.synthesize(ctx, db, sql)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return kept, rejected, nil
}

func (s *Synthesizer) synthesize(ctx context.Context, db *dataset.Database, sql *ast.Query) ([]*VisObject, []Rejection, error) {
	if err := fault.Inject(fault.SiteSynthesize); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if err := sql.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: invalid sql tree: %w", err)
	}
	te := s.Obs.Begin(ctx, obs.LayerBench, obs.StageTreeEdit)
	cands := s.Candidates(db, sql)
	te.End("ok")
	// Execute every distinct query, then judge every candidate, so each
	// pair records one execute and one deepeye stage.
	ex := s.Obs.Begin(ctx, obs.LayerBench, obs.StageExecute)
	runs, executions := execute(db, cands)
	ex.End("ok", "candidates", strconv.Itoa(len(cands)), "executions", strconv.Itoa(executions))
	de := s.Obs.Begin(ctx, obs.LayerBench, obs.StageDeepEye)
	defer de.End("ok")
	featurize(db, cands, runs)
	var kept []*VisObject
	var rejected []Rejection
	for i, c := range cands {
		r := &runs[i]
		if r.err != nil {
			// Transient (injected/flaky) execution failures are recorded in
			// their own bucket: they are infrastructure losses, not
			// chart-quality verdicts, and must not skew the Section 2.4
			// rejection statistics.
			reason := "execution: " + r.err.Error()
			if fault.IsTransient(r.err) {
				reason = "transient: " + r.err.Error()
			}
			rejected = append(rejected, Rejection{Query: c.Query, Reason: reason})
			continue
		}
		if ok, reason := s.Filter.Judge(r.feats); !ok {
			rejected = append(rejected, Rejection{Query: c.Query, Reason: reason})
			continue
		}
		kept = append(kept, &VisObject{
			Candidate: c,
			Features:  r.feats,
			Result:    r.res,
			Hardness:  ast.Classify(c.Query),
		})
	}
	return kept, rejected, nil
}

// run is one candidate's execution and features as the pair loop judges
// them. src is the index of the candidate whose execution it shares (its
// own index when it ran the query, -1 after an injected fault).
type run struct {
	res   *dataset.Result
	err   error
	feats deepeye.Features
	src   int
}

// execute runs each distinct query among one pair's candidates once. The
// executor never reads the Visualize node, so candidates whose trees
// differ only in their chart type share one execution, keyed by their
// canonical text without its leading "visualize <chart>" tokens. The
// execute fault site still fires once per candidate, before the lookup;
// an injected error is that candidate's alone and is never stored, so a
// later sibling runs or shares as if no fault had fired. It returns how
// many queries reached the executor.
func execute(db *dataset.Database, cands []Candidate) ([]run, int) {
	runs := make([]run, len(cands))
	first := make(map[string]int, len(cands))
	executions := 0
	for i, c := range cands {
		if err := fault.Inject(fault.SiteExecute); err != nil {
			// Wrapped as deepeye.Execute wraps it, so a transient
			// rejection reads the same on either path.
			runs[i] = run{err: fmt.Errorf("deepeye: %w", err), src: -1}
			continue
		}
		key := execKey(c.text)
		if j, ok := first[key]; ok {
			runs[i] = run{res: runs[j].res, err: runs[j].err, src: j}
			continue
		}
		first[key] = i
		executions++
		res, err := dataset.Execute(db, c.Query)
		runs[i] = run{res: res, err: err, src: i}
	}
	return runs, executions
}

// execKey drops the leading "visualize <chart>" tokens from a candidate's
// canonical text; chart tokens hold no spaces.
func execKey(text string) string {
	rest, ok := strings.CutPrefix(text, "visualize ")
	if !ok {
		return text
	}
	_, body, _ := strings.Cut(rest, " ")
	return body
}

// featurize fills in the features of every candidate that executed.
// deepeye.FromResult reads the query only through its chart type and the
// first core's select attributes, and a candidate sharing an execution
// has the same select list, so it takes the features of the candidate
// that ran the query with its own chart type.
func featurize(db *dataset.Database, cands []Candidate, runs []run) {
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			continue
		}
		if r.src == i {
			r.feats = deepeye.FromResult(db, cands[i].Query, r.res)
			continue
		}
		r.feats = runs[r.src].feats
		r.feats.VisType = cands[i].Query.Visualize
	}
}

// Candidates enumerates the candidate vis set T_V for one SQL tree
// (deletions then insertions), deduplicated, without quality filtering.
func (s *Synthesizer) Candidates(db *dataset.Database, sql *ast.Query) []Candidate {
	maxC := s.MaxCandidates
	if maxC <= 0 {
		maxC = 64
	}
	var out []Candidate
	seen := map[string]bool{}
	add := func(c Candidate) bool {
		c.text = c.Query.String()
		if seen[c.text] {
			return true
		}
		if c.Query.Validate() != nil {
			return true
		}
		seen[c.text] = true
		out = append(out, c)
		return len(out) < maxC
	}
	for _, inter := range s.intermediates(sql) {
		for _, c := range s.insertions(db, sql, inter) {
			if !add(c) {
				return out
			}
		}
	}
	return out
}

// intermediate is one deletion result: a pruned tree plus its Δ⁻.
type intermediate struct {
	q    *ast.Query
	dels []EditOp
}

// intermediates performs the Δ⁻ step: enumerate select-attribute subsets of
// size 1–3 (keeping Filter, Superlative and grouping subtrees unchanged),
// and for trees with an Order subtree also the variant without it. For set
// operator trees the subsets apply to both cores in parallel by position.
func (s *Synthesizer) intermediates(sql *ast.Query) []intermediate {
	nSel := len(sql.Left.Select)
	// Enumerate larger subsets first: keeping the full "what data" part is
	// the preferred edit (no deletions, so the NL transfers automatically);
	// deletion-heavy candidates come later and only fill remaining slots.
	var subsets [][]int
	for size := 3; size >= 1; size-- {
		if size > nSel {
			continue
		}
		subsets = append(subsets, combinations(nSel, size)...)
	}
	var out []intermediate
	for _, idxs := range subsets {
		q := sql.Clone()
		var dels []EditOp
		keep := map[int]bool{}
		for _, i := range idxs {
			keep[i] = true
		}
		for i := nSel - 1; i >= 0; i-- {
			if !keep[i] {
				for _, c := range q.Cores() {
					if i < len(c.Select) {
						dels = append(dels, EditOp{Kind: DeleteSelect, Attr: c.Select[i]})
						c.Select = append(c.Select[:i], c.Select[i+1:]...)
					}
				}
			}
		}
		out = append(out, intermediate{q: q, dels: dels})
		// Variant without the Order subtree (pies have no order).
		hasOrder := false
		for _, c := range q.Cores() {
			if c.Order != nil {
				hasOrder = true
			}
		}
		if hasOrder {
			q2 := q.Clone()
			dels2 := append([]EditOp(nil), dels...)
			for _, c := range q2.Cores() {
				if c.Order != nil {
					dels2 = append(dels2, EditOp{Kind: DeleteOrder, Attr: c.Order.Attr})
					c.Order = nil
				}
			}
			out = append(out, intermediate{q: q2, dels: dels2})
		}
	}
	return out
}

// combinations enumerates k-subsets of [0, n) in index order.
func combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
