package core

import (
	"nvbench/internal/ast"
	"nvbench/internal/dataset"
	"nvbench/internal/deepeye"
)

// Outcome is one candidate's execution and features as the pair loop
// produced them.
type Outcome struct {
	Candidate Candidate
	Result    *dataset.Result
	Err       error
	Features  deepeye.Features
}

// Outcomes runs the pair loop's execute and featurize steps over sql's
// candidates. It also returns how many queries reached the executor.
func (s *Synthesizer) Outcomes(db *dataset.Database, sql *ast.Query) ([]Outcome, int) {
	return outcomes(db, s.Candidates(db, sql))
}

// OutcomesOf runs the same steps over hand-built candidates, each
// rendered as Candidates renders it.
func OutcomesOf(db *dataset.Database, cands []Candidate) ([]Outcome, int) {
	for i := range cands {
		cands[i].text = cands[i].Query.String()
	}
	return outcomes(db, cands)
}

func outcomes(db *dataset.Database, cands []Candidate) ([]Outcome, int) {
	runs, executions := execute(db, cands)
	featurize(db, cands, runs)
	out := make([]Outcome, len(runs))
	for i, r := range runs {
		out[i] = Outcome{Candidate: cands[i], Result: r.res, Err: r.err, Features: r.feats}
	}
	return out, executions
}
