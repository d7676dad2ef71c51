package vql

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/spider"
)

var (
	testBenchOnce sync.Once
	testBench     *bench.Benchmark
	testBenchErr  error
)

// loadTestBench builds one small deterministic benchmark per process.
func loadTestBench(t testing.TB) *bench.Benchmark {
	t.Helper()
	testBenchOnce.Do(func() {
		corpus, err := spider.Generate(spider.TestConfig())
		if err != nil {
			testBenchErr = err
			return
		}
		testBench, testBenchErr = bench.Build(corpus, bench.DefaultOptions())
	})
	if testBenchErr != nil {
		t.Fatalf("build benchmark: %v", testBenchErr)
	}
	return testBench
}

func testEngine(t testing.TB) *Engine {
	t.Helper()
	return NewEngine(loadTestBench(t))
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT * FROM entries",
		"SELECT hardness, chart, count(*) FROM entries WHERE db = 'flight_1' GROUP BY 1, 2 ORDER BY 3 DESC",
		"SELECT chart FROM entries WHERE NOT (hardness = 'easy' OR tokens < 5) LIMIT 10",
		"SELECT avg(tokens), min(id), max(nl_count) FROM entries WHERE manual = true AND tokens >= 3",
		"SELECT chart, sum(num_vis) FROM stats GROUP BY chart ORDER BY chart ASC",
		"SELECT count(*) FROM entries WHERE db != 'a''b' OR id <= -2.5",
	}
	for _, src := range cases {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Errorf("round trip of %q: ASTs differ\n first: %#v\nsecond: %#v", src, q1, q2)
		}
		if got := q2.String(); got != printed {
			t.Errorf("print of %q not stable: %q then %q", src, printed, got)
		}
	}
}

func TestParseCaseAndSpellingInsensitive(t *testing.T) {
	a, err := Parse("select Chart from ENTRIES where DB <> 'x'")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("SELECT chart FROM entries WHERE db != 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("case/spelling variants parse differently:\n%#v\n%#v", a, b)
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	cases := []struct {
		src string
		pos int // expected 1-based position
	}{
		{"", 1},
		{"SELECT", 7},
		{"SELECT FROM entries", 8},
		{"SELECT * FORM entries", 10},
		{"SELECT * FROM entries WHERE", 28},
		{"SELECT * FROM entries WHERE db == 'x'", 33},
		{"SELECT * FROM entries WHERE db = 'x", 34},
		{"SELECT * FROM entries LIMIT x", 29},
		{"SELECT median(id) FROM entries", 8},
		{"SELECT * FROM entries; DROP TABLE entries", 22},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error", tc.src)
			continue
		}
		var qe *Error
		if !errors.As(err, &qe) {
			t.Errorf("Parse(%q): error %v is not *vql.Error", tc.src, err)
			continue
		}
		if qe.Pos != tc.pos {
			t.Errorf("Parse(%q): position = %d, want %d (%s)", tc.src, qe.Pos, tc.pos, qe.Msg)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	e := testEngine(t)
	cases := []struct {
		src  string
		want string // substring of the error
	}{
		{"SELECT * FROM nope", "unknown table"},
		{"SELECT bogus FROM entries", "unknown column"},
		{"SELECT sum(chart) FROM entries", "requires a numeric column"},
		{"SELECT chart, count(*) FROM entries", "must appear in GROUP BY"},
		{"SELECT chart FROM entries GROUP BY chart", "requires at least one aggregate"},
		{"SELECT chart, count(*) FROM entries GROUP BY 3", "out of range"},
		{"SELECT chart, count(*) FROM entries GROUP BY 2", "is an aggregate"},
		{"SELECT chart FROM entries ORDER BY hardness", "does not name an output column"},
		{"SELECT * FROM entries WHERE chart = 3", "cannot compare string column"},
		{"SELECT * FROM entries WHERE manual < true", "only supports = and !="},
		{"SELECT * FROM entries WHERE db = null", "cannot compare"},
	}
	for _, tc := range cases {
		_, err := e.Query(tc.src)
		if err == nil {
			t.Errorf("Query(%q): expected error", tc.src)
			continue
		}
		var qe *Error
		if !errors.As(err, &qe) {
			t.Errorf("Query(%q): error %v is not *vql.Error", tc.src, err)
			continue
		}
		if !strings.Contains(qe.Msg, tc.want) {
			t.Errorf("Query(%q): error %q does not contain %q", tc.src, qe.Msg, tc.want)
		}
	}
}

func TestSelectStarShape(t *testing.T) {
	e := testEngine(t)
	b := loadTestBench(t)
	res, err := e.Query("SELECT * FROM entries")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != len(entriesSchema) {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.RowCount != len(b.Entries) || res.Scanned != len(b.Entries) {
		t.Fatalf("rows = %d scanned = %d, want %d", res.RowCount, res.Scanned, len(b.Entries))
	}
	if !strings.HasPrefix(res.Plan, "full scan on entries") {
		t.Fatalf("plan = %q", res.Plan)
	}
	// First row is the first entry.
	first := b.Entries[0]
	if res.Rows[0][0].Num != float64(first.ID) || res.Rows[0][5].Str != first.Chart.String() {
		t.Fatalf("first row %v does not match entry %+v", res.Rows[0], first)
	}
}

func TestFilterAggregateOrder(t *testing.T) {
	e := testEngine(t)
	b := loadTestBench(t)

	// Count easy entries by hand.
	wantEasy := 0
	for _, en := range b.Entries {
		if en.Hardness.String() == "easy" {
			wantEasy++
		}
	}
	res, err := e.Query("SELECT count(*) FROM entries WHERE hardness = 'easy'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 1 || res.Rows[0][0].Num != float64(wantEasy) {
		t.Fatalf("count(*) = %v, want %d", res.Rows[0], wantEasy)
	}

	// Group by hardness, compare against a hand-rolled tally.
	want := map[string]int{}
	for _, en := range b.Entries {
		want[en.Hardness.String()]++
	}
	res, err = e.Query("SELECT hardness, count(*) FROM entries GROUP BY 1 ORDER BY 2 DESC, 1 ASC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(want))
	}
	prev := -1.0
	for _, row := range res.Rows {
		h, n := row[0].Str, row[1].Num
		if float64(want[h]) != n {
			t.Errorf("group %q = %v, want %d", h, n, want[h])
		}
		if prev >= 0 && n > prev {
			t.Errorf("ORDER BY 2 DESC violated: %v after %v", n, prev)
		}
		prev = n
	}

	// Whole-table aggregate over zero rows.
	res, err = e.Query("SELECT count(*), min(id), avg(tokens) FROM entries WHERE db = 'no_such_db'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 1 || res.Rows[0][0].Num != 0 ||
		res.Rows[0][1].Kind != KindNull || res.Rows[0][2].Kind != KindNull {
		t.Fatalf("empty aggregate row = %v", res.Rows[0])
	}

	// LIMIT.
	res, err = e.Query("SELECT id FROM entries ORDER BY id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 3 || res.Rows[0][0].Num != float64(b.Entries[len(b.Entries)-1].ID) {
		t.Fatalf("limit rows = %v", res.Rows)
	}
}

func TestNotNormalization(t *testing.T) {
	e := testEngine(t)
	a, err := e.Query("SELECT id FROM entries WHERE NOT (hardness = 'easy' OR tokens < 5)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query("SELECT id FROM entries WHERE hardness != 'easy' AND tokens >= 5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("normalized NOT differs: %v vs %v", a.Rows, b.Rows)
	}
}

func TestStatsTableMatchesTable3(t *testing.T) {
	e := testEngine(t)
	b := loadTestBench(t)
	res, err := e.Query("SELECT chart, num_vis FROM stats ORDER BY chart")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, st := range b.Table3() {
		want[st.Chart.String()] = st.NumVis
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("stats rows = %d, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if float64(want[row[0].Str]) != row[1].Num {
			t.Errorf("stats[%q].num_vis = %v, want %d", row[0].Str, row[1].Num, want[row[0].Str])
		}
	}
}

// TestStatsTableBuiltOnceUnderConcurrentFirstQueries sends a fresh
// engine's first stats queries from 8 goroutines at once: each must see
// the whole table, row for row equal to Table 3.
func TestStatsTableBuiltOnceUnderConcurrentFirstQueries(t *testing.T) {
	b := loadTestBench(t)
	var want [][]Value
	for _, st := range b.Table3() {
		want = append(want, []Value{
			StringVal(st.Chart.String()),
			Number(float64(st.NumVis)),
			Number(float64(st.NumPairs)),
			Number(st.PairsPer),
			Number(st.AvgWords),
			Number(float64(st.MaxWords)),
			Number(float64(st.MinWords)),
			Number(st.AvgBLEU),
		})
	}
	e := NewEngine(b)
	start := make(chan struct{})
	results := make([]*Result, 8)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[g], errs[g] = e.Query("SELECT * FROM stats")
		}()
	}
	close(start)
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("goroutine %d: stats rows = %v, want %v", g, res.Rows, want)
		}
	}
}

// fakeIndex maps keys to entry hashes, standing in for the store's
// index in unit tests.
type fakeIndex map[string][]string

func (f fakeIndex) Lookup(key string) []string { return f[key] }

// fakeHashes gives every entry a synthetic content hash.
func fakeHashes(n int) []string {
	hashes := make([]string, n)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("hash%04d", i)
	}
	return hashes
}

func TestIndexPushdown(t *testing.T) {
	b := loadTestBench(t)
	scan := NewEngine(b)
	indexed := NewEngine(b)

	hashes := fakeHashes(len(b.Entries))
	byDB := fakeIndex{}
	byChart := fakeIndex{}
	for i, en := range b.Entries {
		byDB[en.DB.Name] = append(byDB[en.DB.Name], hashes[i])
		byChart[en.Chart.String()] = append(byChart[en.Chart.String()], hashes[i])
	}
	if err := indexed.SetIndexes(hashes, map[string]Index{"db": byDB, "chart": byChart}); err != nil {
		t.Fatal(err)
	}
	if got := indexed.IndexedFields(); !reflect.DeepEqual(got, []string{"chart", "db"}) {
		t.Fatalf("IndexedFields = %v", got)
	}

	dbName := b.Entries[len(b.Entries)/2].DB.Name
	src := "SELECT hardness, chart, count(*) FROM entries WHERE db = '" + dbName +
		"' GROUP BY 1, 2 ORDER BY 3 DESC, 1, 2"
	want, err := scan.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := indexed.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("indexed rows differ from scan:\n%v\n%v", got.Rows, want.Rows)
	}
	if got.Index != "db" || !strings.HasPrefix(got.Plan, "index scan on entries: db =") {
		t.Fatalf("indexed plan = %q (index %q)", got.Plan, got.Index)
	}
	if got.Scanned >= want.Scanned {
		t.Fatalf("indexed scanned %d rows, full scan %d", got.Scanned, want.Scanned)
	}
	if want.Index != "" || !strings.HasPrefix(want.Plan, "full scan") {
		t.Fatalf("scan plan = %q (index %q)", want.Plan, want.Index)
	}

	// Preference: db index wins over chart when both are usable.
	chart := b.Entries[0].Chart.String()
	res, err := indexed.Query("SELECT count(*) FROM entries WHERE chart = '" + chart + "' AND db = '" + dbName + "'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "db" {
		t.Fatalf("index preference picked %q, want db", res.Index)
	}
	if !strings.Contains(res.Plan, "filter chart =") {
		t.Fatalf("residual filter missing from plan %q", res.Plan)
	}

	// An OR query must not use the index.
	res, err = indexed.Query("SELECT count(*) FROM entries WHERE db = '" + dbName + "' OR chart = '" + chart + "'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "" {
		t.Fatalf("OR predicate used index %q", res.Index)
	}

	// Unknown posting hashes are skipped, not fatal.
	byDB["ghost"] = []string{"nosuchhash"}
	res, err = indexed.Query("SELECT count(*) FROM entries WHERE db = 'ghost'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Num != 0 {
		t.Fatalf("ghost rows = %v", res.Rows)
	}
}

func TestSetIndexesLengthMismatch(t *testing.T) {
	e := testEngine(t)
	if err := e.SetIndexes([]string{"only-one"}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestResultJSON(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query("SELECT hardness, count(*) FROM entries GROUP BY 1 ORDER BY 1 LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		RowCount int      `json:"row_count"`
		Plan     string   `json:"plan"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("result JSON does not decode: %v\n%s", err, data)
	}
	if len(decoded.Rows) != 1 || decoded.RowCount != 1 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if _, ok := decoded.Rows[0][0].(string); !ok {
		t.Fatalf("hardness column not a JSON string: %T", decoded.Rows[0][0])
	}
	if _, ok := decoded.Rows[0][1].(float64); !ok {
		t.Fatalf("count column not a JSON number: %T", decoded.Rows[0][1])
	}
}

func TestQueryDeterministic(t *testing.T) {
	e := testEngine(t)
	const src = "SELECT db, hardness, chart, count(*), avg(tokens) FROM entries GROUP BY 1, 2, 3 ORDER BY 4 DESC, 1, 2, 3"
	a, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical queries returned different results")
	}
}
