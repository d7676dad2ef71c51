package core_test

import (
	"fmt"
	"testing"

	"nvbench/internal/core"
	"nvbench/internal/dataset"
	"nvbench/internal/deepeye"
	"nvbench/internal/fault"
	"nvbench/internal/spider"
)

// referenceShaped generates a seeded corpus of the reference corpus's
// shape (seed 1 is the reference corpus itself).
func referenceShaped(t *testing.T, seed int64) *spider.Corpus {
	t.Helper()
	corpus, err := spider.Generate(spider.Config{Seed: seed, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// fresh is one candidate executed and featurized on its own, with no
// execution shared between candidates.
type fresh struct {
	res   *dataset.Result
	err   error
	feats deepeye.Features
	// verdict is "" for a kept candidate, else its rejection reason.
	verdict string
}

func runFresh(s *core.Synthesizer, db *dataset.Database, c core.Candidate) fresh {
	res, err := deepeye.Execute(db, c.Query)
	if err != nil {
		reason := "execution: " + err.Error()
		if fault.IsTransient(err) {
			reason = "transient: " + err.Error()
		}
		return fresh{err: err, verdict: reason}
	}
	f := fresh{res: res, feats: deepeye.FromResult(db, c.Query, res)}
	if ok, reason := s.Filter.Judge(f.feats); !ok {
		f.verdict = reason
	}
	return f
}

// sameResult compares two executions column by column and cell by cell.
func sameResult(got, want *dataset.Result) string {
	if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
		return fmt.Sprintf("columns %q, want %q", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for ri, row := range got.Rows {
		if len(row) != len(want.Rows[ri]) {
			return fmt.Sprintf("row %d has %d cells, want %d", ri, len(row), len(want.Rows[ri]))
		}
		for ci, c := range row {
			w := want.Rows[ri][ci]
			if c.Kind != w.Kind || c.Null != w.Null || c.Str != w.Str || c.Num != w.Num || !c.Time.Equal(w.Time) {
				return fmt.Sprintf("row %d cell %d is %+v, want %+v", ri, ci, c, w)
			}
		}
	}
	return ""
}

// sameOutcome compares what the pair loop produced for one candidate with
// the candidate's own fresh execution.
func sameOutcome(o core.Outcome, f fresh) string {
	switch {
	case (o.Err == nil) != (f.err == nil):
		return fmt.Sprintf("error %v, want %v", o.Err, f.err)
	case o.Err != nil:
		if o.Err.Error() != f.err.Error() {
			return fmt.Sprintf("error %q, want %q", o.Err, f.err)
		}
		return ""
	}
	if msg := sameResult(o.Result, f.res); msg != "" {
		return msg
	}
	if o.Features != f.feats {
		return fmt.Sprintf("features %+v, want %+v", o.Features, f.feats)
	}
	return ""
}

// checkSynthesize compares Synthesize's kept list and rejection reasons
// with the per-candidate verdicts, in candidate order.
func checkSynthesize(s *core.Synthesizer, p *spider.Pair, cands []core.Candidate, want []fresh) string {
	kept, rejected, err := s.Synthesize(p.DB, p.Query)
	if err != nil {
		return err.Error()
	}
	k, r := 0, 0
	for i, c := range cands {
		text := c.Query.String()
		if want[i].verdict != "" {
			if r >= len(rejected) || rejected[r].Query.String() != text || rejected[r].Reason != want[i].verdict {
				return fmt.Sprintf("candidate %d %q: want rejection %q at rejection %d", i, text, want[i].verdict, r)
			}
			r++
			continue
		}
		if k >= len(kept) || kept[k].Query.String() != text {
			return fmt.Sprintf("candidate %d %q: want it kept at position %d", i, text, k)
		}
		if msg := sameResult(kept[k].Result, want[i].res); msg != "" {
			return fmt.Sprintf("kept %q: %s", text, msg)
		}
		if kept[k].Features != want[i].feats {
			return fmt.Sprintf("kept %q: features %+v, want %+v", text, kept[k].Features, want[i].feats)
		}
		k++
	}
	if k != len(kept) || r != len(rejected) {
		return fmt.Sprintf("%d kept and %d rejected, want %d and %d", len(kept), len(rejected), k, r)
	}
	return ""
}

// The pair loop executes each distinct query of a pair once and shares
// the result, error and features among candidates that differ only in
// their chart type. On seeds 1–3 every candidate's shared outcome must
// equal its own fresh execution, and Synthesize must keep and reject
// exactly what a loop without sharing does.
func TestSharedExecutionsMatchFreshOnes(t *testing.T) {
	synth := core.New()
	want := map[int64][2]int{1: {3681, 2333}, 2: {3428, 2208}, 3: {3952, 2517}}
	for _, seed := range []int64{1, 2, 3} {
		corpus := referenceShaped(t, seed)
		candidates, executions := 0, 0
		for _, p := range corpus.Pairs {
			outs, n := synth.Outcomes(p.DB, p.Query)
			candidates += len(outs)
			executions += n
			cands := make([]core.Candidate, len(outs))
			verdicts := make([]fresh, len(outs))
			for i, o := range outs {
				cands[i] = o.Candidate
				verdicts[i] = runFresh(synth, p.DB, o.Candidate)
				if msg := sameOutcome(o, verdicts[i]); msg != "" {
					t.Fatalf("seed %d pair %d candidate %d %q: %s", seed, p.ID, i, o.Candidate.Query, msg)
				}
			}
			if msg := checkSynthesize(synth, p, cands, verdicts); msg != "" {
				t.Fatalf("seed %d pair %d: %s", seed, p.ID, msg)
			}
		}
		if got := [2]int{candidates, executions}; got != want[seed] {
			t.Errorf("seed %d: %d candidates and %d executions, want %d and %d",
				seed, candidates, executions, want[seed][0], want[seed][1])
		}
	}
}

// With half the execute-site calls failing, the site still fires once per
// candidate; every transient rejection is the candidate's own injection,
// and every other candidate is judged as it is without faults, so an
// injected error is never shared with a sibling.
func TestSharedExecutionsUnderInjectedErrors(t *testing.T) {
	synth := core.New()
	corpus := referenceShaped(t, 1)
	type pair struct {
		p     *spider.Pair
		cands []core.Candidate
		clean []fresh
	}
	var pairs []pair
	total := 0
	for _, p := range corpus.Pairs {
		cands := synth.Candidates(p.DB, p.Query)
		if len(cands) == 0 {
			continue
		}
		clean := make([]fresh, len(cands))
		for i, c := range cands {
			clean[i] = runFresh(synth, p.DB, c)
		}
		pairs = append(pairs, pair{p: p, cands: cands, clean: clean})
		total += len(cands)
	}

	const seed = 7
	rule := fault.Rule{Site: fault.SiteExecute, Kind: fault.KindError, Rate: 0.5}
	// The plan's schedule is a pure function of its seed and the call
	// index, so a twin plan tells which calls will fail.
	fired := make([]bool, total)
	restore := fault.Activate(fault.NewPlan(seed).Add(rule))
	for n := range fired {
		fired[n] = fault.Inject(fault.SiteExecute) != nil
	}
	restore()

	plan := fault.NewPlan(seed).Add(rule)
	defer fault.Activate(plan)()
	call, injected := 0, 0
	for _, pr := range pairs {
		want := make([]fresh, len(pr.cands))
		for i := range pr.cands {
			want[i] = pr.clean[i]
			if fired[call] {
				injected++
				err := fmt.Errorf("deepeye: %w", &fault.Error{Site: fault.SiteExecute, N: uint64(call + 1)})
				want[i] = fresh{err: err, verdict: "transient: " + err.Error()}
			}
			call++
		}
		if msg := checkSynthesize(synth, pr.p, pr.cands, want); msg != "" {
			t.Fatalf("pair %d: %s", pr.p.ID, msg)
		}
	}
	if injected == 0 || injected == total {
		t.Fatalf("%d of %d calls injected: the rate-0.5 plan should fail some and pass some", injected, total)
	}
	stats := plan.Stats()
	if len(stats) != 1 || stats[0].Calls != uint64(total) || stats[0].Errors != uint64(injected) {
		t.Errorf("execute site stats %+v, want one call per candidate (%d) and %d errors", stats, total, injected)
	}
}

// Candidates of one reference pair never differ in their filter, so the
// corpus alone cannot tell a key that ignores the filter from the right
// one. Each filtered candidate here gets a twin without its filter: the
// two must run separately and each match its own fresh execution.
func TestSharedExecutionsKeepFiltersApart(t *testing.T) {
	synth := core.New()
	corpus := referenceShaped(t, 1)
	differ := 0
	for _, p := range corpus.Pairs {
		for _, c := range synth.Candidates(p.DB, p.Query) {
			if c.Query.Left == nil || c.Query.Left.Filter == nil {
				continue
			}
			twin := c
			twin.Query = c.Query.Clone()
			twin.Query.Left.Filter = nil
			if twin.Query.Validate() != nil {
				continue
			}
			outs, n := core.OutcomesOf(p.DB, []core.Candidate{c, twin})
			if n != 2 {
				t.Fatalf("pair %d: %q and its unfiltered twin ran %d executions, want 2", p.ID, c.Query, n)
			}
			want := []fresh{runFresh(synth, p.DB, c), runFresh(synth, p.DB, twin)}
			for i, o := range outs {
				if msg := sameOutcome(o, want[i]); msg != "" {
					t.Fatalf("pair %d candidate %q: %s", p.ID, o.Candidate.Query, msg)
				}
			}
			if want[0].err == nil && want[1].err == nil && sameResult(want[0].res, want[1].res) != "" {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("no filter changed a result: the twins cannot tell the keys apart")
	}
}
