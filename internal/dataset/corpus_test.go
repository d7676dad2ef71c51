package dataset_test

import (
	"fmt"
	"sync"
	"testing"

	"nvbench/internal/ast"
	"nvbench/internal/core"
	"nvbench/internal/dataset"
	"nvbench/internal/spider"
)

// candidate is one candidate vis tree with the database it runs over.
type candidate struct {
	db *dataset.Database
	q  *ast.Query
}

// candidates enumerates every candidate of every pair of a seeded corpus
// of the reference corpus's shape, the ones DeepEye rejects included:
// they reach more executor paths (empty relations, failing subqueries,
// bad orderings) than the kept ones.
func candidates(tb testing.TB, seed int64) []candidate {
	tb.Helper()
	corpus, err := spider.Generate(spider.Config{Seed: seed, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000})
	if err != nil {
		tb.Fatal(err)
	}
	synth := core.New()
	var out []candidate
	for _, p := range corpus.Pairs {
		for _, c := range synth.Candidates(p.DB, p.Query) {
			out = append(out, candidate{db: p.DB, q: c.Query})
		}
	}
	return out
}

// Every candidate of seeds 2 and 3 executes to what the oracle returns:
// the same columns, the same cells in the same order, the same error
// (no candidate of these seeds fails today).
// Seed 1 is pinned by the root package's TestReferenceCandidateResults.
func TestCandidatesMatchOracle(t *testing.T) {
	for _, seed := range []int64{2, 3} {
		cands := candidates(t, seed)
		failed := 0
		for i, c := range cands {
			if _, err := dataset.Execute(c.db, c.q); err != nil {
				failed++
			}
			if msg := dataset.SameExecution(c.db, c.q); msg != "" {
				t.Fatalf("seed %d candidate %d %q: %s", seed, i, c.q, msg)
			}
		}
		if len(cands) < 1000 {
			t.Fatalf("seed %d: only %d candidates", seed, len(cands))
		}
		t.Logf("seed %d: %d candidates match the oracle, %d of them failing", seed, len(cands), failed)
	}
}

// Build workers execute candidates at the same time over shared tables.
// Two goroutines execute every other seed-2 candidate each, and each
// result must match the sequential one; under -race this also checks
// that an execution writes nothing the other reads.
func TestConcurrentExecutionsShareTables(t *testing.T) {
	cands := candidates(t, 2)
	want := make([]*dataset.Result, len(cands))
	for i, c := range cands {
		want[i], _ = dataset.Execute(c.db, c.q)
	}
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cands); i += 2 {
				got, err := dataset.Execute(cands[i].db, cands[i].q)
				if (err == nil) != (want[i] != nil) || (err == nil && !got.EqualOrdered(want[i])) {
					errs[w] = fmt.Sprintf("candidate %d %q differs from its sequential execution", i, cands[i].q)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != "" {
			t.Error(err)
		}
	}
}

// BenchmarkExecute times one pass of dataset.Execute over every seed-1
// candidate of a class: "join" reads more than one table, "grouped"
// groups or aggregates one table, "plain" projects one table.
func BenchmarkExecute(b *testing.B) {
	classes := map[string][]candidate{}
	for _, c := range candidates(b, 1) {
		classes[class(c.q)] = append(classes[class(c.q)], c)
	}
	for _, name := range []string{"grouped", "plain", "join"} {
		cands := classes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range cands {
					executeSink, _ = dataset.Execute(c.db, c.q)
				}
			}
		})
	}
}

// executeSink keeps the benchmarked executions from being optimized away.
var executeSink *dataset.Result

func class(q *ast.Query) string {
	grouped := false
	for _, c := range q.Cores() {
		if len(c.Tables) > 1 {
			return "join"
		}
		grouped = grouped || len(c.Groups) > 0
		for _, a := range c.Select {
			grouped = grouped || a.Agg != ast.AggNone
		}
	}
	if grouped {
		return "grouped"
	}
	return "plain"
}
