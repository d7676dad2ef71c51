// Benchmarks behind scripts/bench.sh's BENCH_vql.json gate: a
// db-equality query answered from the store's db index must beat
// the same query as a full scan. The corpus is bigger than the unit-test
// one (40 databases) so the scan has something to lose.

package vql

import (
	"os"
	"sync"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/spider"
	"nvbench/internal/store"
)

var (
	queryBenchOnce sync.Once
	queryBenchScan *Engine
	queryBenchIdx  *Engine
	queryBenchQ    string
	queryBenchErr  error
)

// setupQueryBench saves a 40-database benchmark to a throwaway store,
// takes the indexes of the saved benchmark, and builds two engines over
// the same rows: one indexed, one scan-only. The store directory is
// removed once the indexes are built.
func setupQueryBench() {
	dir, err := os.MkdirTemp("", "vql-bench-")
	if err != nil {
		queryBenchErr = err
		return
	}
	defer os.RemoveAll(dir)
	corpus, err := spider.Generate(spider.Config{Seed: 1, NumDatabases: 40, PairsPerDB: 12, MaxRows: 80})
	if err != nil {
		queryBenchErr = err
		return
	}
	bb, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		queryBenchErr = err
		return
	}
	st, err := store.Open(dir)
	if err != nil {
		queryBenchErr = err
		return
	}
	m, err := st.Save(bb, store.BuildInfo{Seed: 1})
	if err != nil {
		queryBenchErr = err
		return
	}
	sidx, err := st.LoadIndexes()
	if err != nil {
		queryBenchErr = err
		return
	}
	queryBenchScan = NewEngine(bb)
	queryBenchIdx = NewEngine(bb)
	vidx := make(map[string]Index, len(sidx))
	for f, ix := range sidx {
		vidx[f] = ix
	}
	if err := queryBenchIdx.SetIndexes(m.EntryHashes(), vidx); err != nil {
		queryBenchErr = err
		return
	}
	queryBenchQ = "SELECT count(*) FROM entries WHERE db = '" +
		bb.Entries[len(bb.Entries)/2].DB.Name + "'"
}

// queryBenchEngines returns the two prepared engines, verifying once that
// they agree and that the indexed one actually plans an index scan.
func queryBenchEngines(b *testing.B) (scan, indexed *Engine) {
	b.Helper()
	queryBenchOnce.Do(setupQueryBench)
	if queryBenchErr != nil {
		b.Fatal(queryBenchErr)
	}
	s, err := queryBenchScan.Query(queryBenchQ)
	if err != nil {
		b.Fatal(err)
	}
	i, err := queryBenchIdx.Query(queryBenchQ)
	if err != nil {
		b.Fatal(err)
	}
	if i.Index != "db" {
		b.Fatalf("indexed engine planned %q, want a db index scan", i.Plan)
	}
	if s.Rows[0][0] != i.Rows[0][0] {
		b.Fatalf("scan and index disagree: %v vs %v", s.Rows[0][0], i.Rows[0][0])
	}
	return queryBenchScan, queryBenchIdx
}

func BenchmarkVQLScan(b *testing.B) {
	eng, _ := queryBenchEngines(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := eng.Query(queryBenchQ); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVQLIndexed(b *testing.B) {
	_, eng := queryBenchEngines(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := eng.Query(queryBenchQ); err != nil {
			b.Fatal(err)
		}
	}
}
