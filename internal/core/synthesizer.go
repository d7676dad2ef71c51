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

// Deletions returns Δ⁻.
func (e Edit) Deletions() []EditOp {
	var out []EditOp
	for _, op := range e.Ops {
		if op.IsDeletion() {
			out = append(out, op)
		}
	}
	return out
}

// Insertions returns Δ⁺.
func (e Edit) Insertions() []EditOp {
	var out []EditOp
	for _, op := range e.Ops {
		if !op.IsDeletion() {
			out = append(out, op)
		}
	}
	return out
}

// HasDeletions reports whether the script deletes anything — the cases the
// paper routes to manual NL revision (Section 2.5).
func (e Edit) HasDeletions() bool { return len(e.Deletions()) > 0 }

// Candidate is one synthesized vis tree with its edit script.
type Candidate struct {
	Query  *ast.Query
	Edit   Edit
	Source *ast.Query
}

// VisObject is a candidate that survived filtering, with its execution
// artifacts attached.
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
	// Execute every candidate, then judge the ones that ran, so each pair
	// records one execute and one deepeye stage.
	ex := s.Obs.Begin(ctx, obs.LayerBench, obs.StageExecute)
	results := make([]*dataset.Result, len(cands))
	errs := make([]error, len(cands))
	for i, c := range cands {
		results[i], errs[i] = deepeye.Execute(db, c.Query)
	}
	ex.End("ok")
	var kept []*VisObject
	var rejected []Rejection
	de := s.Obs.Begin(ctx, obs.LayerBench, obs.StageDeepEye)
	defer de.End("ok")
	for i, c := range cands {
		if err := errs[i]; err != nil {
			// Transient (injected/flaky) execution failures are recorded in
			// their own bucket: they are infrastructure losses, not
			// chart-quality verdicts, and must not skew the Section 2.4
			// rejection statistics.
			reason := "execution: " + err.Error()
			if fault.IsTransient(err) {
				reason = "transient: " + err.Error()
			}
			rejected = append(rejected, Rejection{Query: c.Query, Reason: reason})
			continue
		}
		feats := deepeye.FromResult(db, c.Query, results[i])
		if ok, reason := deepeye.RuleCheck(feats); !ok {
			rejected = append(rejected, Rejection{Query: c.Query, Reason: reason})
			continue
		}
		if s.Filter != nil {
			good, _ := s.Filter.PredictSafe(feats)
			if !good {
				rejected = append(rejected, Rejection{Query: c.Query, Reason: "classifier: low quality score"})
				continue
			}
		}
		kept = append(kept, &VisObject{
			Candidate: c,
			Features:  feats,
			Result:    results[i],
			Hardness:  ast.Classify(c.Query),
		})
	}
	return kept, rejected, nil
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
		key := c.Query.String()
		if seen[key] {
			return true
		}
		if c.Query.Validate() != nil {
			return true
		}
		seen[key] = true
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
