package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nvbench/internal/ast"
)

// testDB builds a small two-table database with a foreign key, covering all
// three column types.
func testDB() *Database {
	dept := &Table{
		Name: "dept",
		Columns: []Column{
			{Name: "id", Type: Quantitative},
			{Name: "name", Type: Categorical},
		},
		Rows: [][]Cell{
			{N(1), S("CS")},
			{N(2), S("EE")},
			{N(3), S("Math")},
		},
	}
	emp := &Table{
		Name: "emp",
		Columns: []Column{
			{Name: "id", Type: Quantitative},
			{Name: "name", Type: Categorical},
			{Name: "salary", Type: Quantitative},
			{Name: "hired", Type: Temporal},
			{Name: "dept_id", Type: Quantitative},
		},
		Rows: [][]Cell{
			{N(1), S("Alice"), N(100), T(date(2019, 1, 15)), N(1)},
			{N(2), S("Bob"), N(80), T(date(2019, 6, 2)), N(1)},
			{N(3), S("Carol"), N(120), T(date(2020, 3, 10)), N(2)},
			{N(4), S("Dan"), N(60), T(date(2020, 7, 20)), N(2)},
			{N(5), S("Eve"), N(90), T(date(2021, 11, 5)), N(3)},
			{N(6), S("Frank"), N(70), T(date(2021, 2, 14)), N(1)},
		},
	}
	return &Database{
		Name:   "company",
		Domain: "Business",
		Tables: []*Table{dept, emp},
		ForeignKeys: []ForeignKey{
			{FromTable: "emp", FromColumn: "dept_id", ToTable: "dept", ToColumn: "id"},
		},
	}
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func mustExec(t *testing.T, db *Database, line string) *Result {
	t.Helper()
	q, err := ast.ParseString(line)
	if err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	res, err := Execute(db, q)
	if err != nil {
		t.Fatalf("execute %q: %v", line, err)
	}
	return res
}

func TestPlainSelect(t *testing.T) {
	res := mustExec(t, testDB(), "select emp.name emp.salary from emp")
	if len(res.Rows) != 6 || len(res.Columns) != 2 {
		t.Fatalf("got %d rows %d cols", len(res.Rows), len(res.Columns))
	}
}

func TestDistinct(t *testing.T) {
	res := mustExec(t, testDB(), "select distinct emp.dept_id from emp")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct dept_id: got %d rows, want 3", len(res.Rows))
	}
}

func TestFilterOps(t *testing.T) {
	db := testDB()
	cases := []struct {
		line string
		want int
	}{
		{"select emp.name from emp filter > emp.salary 85", 3},
		{"select emp.name from emp filter < emp.salary 85", 3},
		{"select emp.name from emp filter >= emp.salary 90", 3},
		{"select emp.name from emp filter <= emp.salary 70", 2},
		{"select emp.name from emp filter = emp.name \"Alice\"", 1},
		{"select emp.name from emp filter != emp.name \"Alice\"", 5},
		{"select emp.name from emp filter between emp.salary 70 100", 4},
		{"select emp.name from emp filter like emp.name \"%a%\"", 4}, // Alice, Carol, Dan, Frank (case-insensitive)
		{"select emp.name from emp filter not_like emp.name \"%a%\"", 2},
		{"select emp.name from emp filter and > emp.salary 70 < emp.salary 110", 3},
		{"select emp.name from emp filter or = emp.name \"Bob\" = emp.name \"Eve\"", 2},
		{"select emp.name from emp filter in emp.dept_id 1 2", 5},
		{"select emp.name from emp filter not_in emp.dept_id 1 2", 1},
	}
	for _, c := range cases {
		res := mustExec(t, db, c.line)
		if len(res.Rows) != c.want {
			t.Errorf("%q: got %d rows, want %d", c.line, len(res.Rows), c.want)
		}
	}
}

func TestGroupCount(t *testing.T) {
	res := mustExec(t, testDB(), "select emp.dept_id count emp.* from emp group grouping emp.dept_id")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	counts := map[string]float64{}
	for _, row := range res.Rows {
		counts[row[0].String()] = row[1].Num
	}
	if counts["1"] != 3 || counts["2"] != 2 || counts["3"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB()
	cases := []struct {
		line string
		want float64
	}{
		{"select sum emp.salary from emp", 520},
		{"select avg emp.salary from emp", 520.0 / 6},
		{"select max emp.salary from emp", 120},
		{"select min emp.salary from emp", 60},
		{"select count emp.* from emp", 6},
		{"select count distinct emp.dept_id from emp", 3},
	}
	for _, c := range cases {
		res := mustExec(t, db, c.line)
		if len(res.Rows) != 1 {
			t.Fatalf("%q: got %d rows", c.line, len(res.Rows))
		}
		if got := res.Rows[0][0].Num; got != c.want {
			t.Errorf("%q = %g, want %g", c.line, got, c.want)
		}
	}
}

func TestAggregateEmptyRelation(t *testing.T) {
	res := mustExec(t, testDB(), "select count emp.* from emp filter > emp.salary 10000")
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 0 {
		t.Fatalf("count over empty relation: %+v", res.Rows)
	}
}

func TestHaving(t *testing.T) {
	res := mustExec(t, testDB(),
		"select emp.dept_id count emp.* from emp group grouping emp.dept_id filter having >= count emp.* 2")
	if len(res.Rows) != 2 {
		t.Fatalf("having: got %d groups, want 2", len(res.Rows))
	}
}

func TestWhereAndHavingMixed(t *testing.T) {
	res := mustExec(t, testDB(),
		"select emp.dept_id count emp.* from emp group grouping emp.dept_id filter and > emp.salary 60 having >= count emp.* 2")
	// salary > 60 removes Dan; dept 1 has 3, dept 2 has 1, dept 3 has 1.
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 1 {
		t.Fatalf("mixed where/having: %+v", res.Rows)
	}
}

func TestBinningYear(t *testing.T) {
	res := mustExec(t, testDB(), "select emp.hired count emp.* from emp group binning emp.hired year")
	if len(res.Rows) != 3 {
		t.Fatalf("year bins: got %d, want 3", len(res.Rows))
	}
	byYear := map[string]float64{}
	for _, row := range res.Rows {
		byYear[row[0].Str] = row[1].Num
	}
	if byYear["2019"] != 2 || byYear["2020"] != 2 || byYear["2021"] != 2 {
		t.Errorf("bins = %v", byYear)
	}
}

func TestBinningUnits(t *testing.T) {
	db := testDB()
	for _, unit := range []string{"minute", "hour", "weekday", "month", "quarter", "year"} {
		res := mustExec(t, db, "select emp.hired count emp.* from emp group binning emp.hired "+unit)
		if len(res.Rows) == 0 {
			t.Errorf("binning by %s produced no rows", unit)
		}
		total := 0.0
		for _, row := range res.Rows {
			total += row[1].Num
		}
		if total != 6 {
			t.Errorf("binning by %s: counts sum to %g, want 6", unit, total)
		}
	}
}

func TestBinningNumeric(t *testing.T) {
	res := mustExec(t, testDB(), "select emp.salary count emp.* from emp group binning emp.salary numeric 3")
	// range 60..120, size = ceil(60/3) = 20 -> bins [60,80) [80,100) [100,120) [120,140)
	if len(res.Rows) != 4 {
		t.Fatalf("numeric bins: got %d rows: %+v", len(res.Rows), res.Rows)
	}
	total := 0.0
	for _, row := range res.Rows {
		total += row[1].Num
	}
	if total != 6 {
		t.Errorf("numeric bin counts sum to %g", total)
	}
}

func TestOrderAsc(t *testing.T) {
	res := mustExec(t, testDB(), "select emp.name emp.salary from emp order asc emp.salary")
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Num > res.Rows[i][1].Num {
			t.Fatalf("not ascending at %d", i)
		}
	}
}

func TestOrderDescOnAggregate(t *testing.T) {
	res := mustExec(t, testDB(),
		"select emp.dept_id count emp.* from emp group grouping emp.dept_id order desc count emp.*")
	if res.Rows[0][1].Num != 3 || res.Rows[2][1].Num != 1 {
		t.Fatalf("order desc count: %+v", res.Rows)
	}
}

func TestSuperlative(t *testing.T) {
	res := mustExec(t, testDB(), "select emp.name emp.salary from emp superlative most 2 emp.salary")
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "Carol" || res.Rows[1][0].Str != "Alice" {
		t.Fatalf("most 2 salary: %+v", res.Rows)
	}
	res = mustExec(t, testDB(), "select emp.name emp.salary from emp superlative least 1 emp.salary")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Dan" {
		t.Fatalf("least 1 salary: %+v", res.Rows)
	}
}

func TestJoinViaForeignKey(t *testing.T) {
	res := mustExec(t, testDB(),
		"select dept.name count emp.* from emp dept group grouping dept.name")
	if len(res.Rows) != 3 {
		t.Fatalf("join group: got %d rows", len(res.Rows))
	}
	counts := map[string]float64{}
	for _, row := range res.Rows {
		counts[row[0].Str] = row[1].Num
	}
	if counts["CS"] != 3 || counts["EE"] != 2 || counts["Math"] != 1 {
		t.Errorf("join counts = %v", counts)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := testDB()
	db.ForeignKeys = nil
	res := mustExec(t, db, "select emp.name dept.name from emp dept")
	if len(res.Rows) != 18 {
		t.Fatalf("cross join: got %d rows, want 18", len(res.Rows))
	}
}

func TestSetOps(t *testing.T) {
	db := testDB()
	union := mustExec(t, db,
		"union select emp.dept_id from emp filter > emp.salary 100 select emp.dept_id from emp filter < emp.salary 70")
	if len(union.Rows) != 1 { // dept 2 on both sides (Carol 120, Dan 60) — distinct union
		t.Fatalf("union: %+v", union.Rows)
	}
	inter := mustExec(t, db,
		"intersect select emp.dept_id from emp filter > emp.salary 90 select emp.dept_id from emp filter < emp.salary 90")
	if len(inter.Rows) != 2 { // dept 1 (Alice>90, Bob<90) and dept 2 (Carol>90, Dan<90)
		t.Fatalf("intersect: %+v", inter.Rows)
	}
	except := mustExec(t, db,
		"except select distinct emp.dept_id from emp select emp.dept_id from emp filter > emp.salary 85")
	if len(except.Rows) != 0 { // every dept has someone > 85 (CS: Alice 100, EE: Carol 120, Math: Eve 90)
		t.Fatalf("except: %+v", except.Rows)
	}
}

func TestSubqueryIn(t *testing.T) {
	res := mustExec(t, testDB(),
		"select emp.name from emp filter in emp.dept_id ( select dept.id from dept filter = dept.name \"CS\" )")
	if len(res.Rows) != 3 {
		t.Fatalf("subquery in: got %d rows, want 3", len(res.Rows))
	}
	res = mustExec(t, testDB(),
		"select emp.name from emp filter not_in emp.dept_id ( select dept.id from dept filter = dept.name \"CS\" )")
	if len(res.Rows) != 3 {
		t.Fatalf("subquery not in: got %d rows, want 3", len(res.Rows))
	}
}

func TestScalarSubqueryComparison(t *testing.T) {
	res := mustExec(t, testDB(),
		"select emp.name from emp filter > emp.salary ( select avg emp.salary from emp )")
	// avg = 86.67 -> Alice(100), Carol(120), Eve(90)
	if len(res.Rows) != 3 {
		t.Fatalf("scalar subquery: got %d rows, want 3", len(res.Rows))
	}
}

// A subquery is uncorrelated, so each execution runs it once: the second
// lookup of a leaf returns the memoized values even after its table is gone.
func TestSubqueryRunsOncePerExecution(t *testing.T) {
	db := testDB()
	q, err := ast.ParseString("select emp.name from emp filter in emp.dept_id ( select dept.id from dept )")
	if err != nil {
		t.Fatal(err)
	}
	leaf := q.Left.Filter
	subs := subqueries{}
	first, err := subs.values(db, leaf)
	if err != nil || len(first) != 3 {
		t.Fatalf("first lookup: %v, %v", first, err)
	}
	db.Tables = db.Tables[1:] // drop dept
	again, err := subs.values(db, leaf)
	if err != nil || len(again) != 3 || &again[0] != &first[0] {
		t.Fatalf("second lookup re-ran the subquery: %v, %v", again, err)
	}
	if _, err := (subqueries{}).values(db, leaf); err == nil {
		t.Fatal("a fresh execution must run the subquery (and fail without dept)")
	}
}

// A subquery runs only when a row reaches its leaf: over an empty relation
// or behind a short-circuit a failing one is never run, and otherwise its
// error is the subquery's own.
func TestSubqueryRunsOnlyWhenReached(t *testing.T) {
	db := testDB()
	db.AddTable(&Table{Name: "none", Columns: []Column{{Name: "id", Type: Quantitative}}})
	const failing = "( select nosuch.id from nosuch )"
	for _, line := range []string{
		"select none.id from none filter in none.id " + failing,
		"select count none.* from none filter > none.id " + failing,
		"select emp.name from emp filter and < emp.salary 0 in emp.dept_id " + failing,
		"select emp.name from emp filter or > emp.salary 0 in emp.dept_id " + failing,
	} {
		mustExec(t, db, line)
	}
	sub, err := ast.ParseString("select nosuch.id from nosuch")
	if err != nil {
		t.Fatal(err)
	}
	_, want := Execute(db, sub)
	q, err := ast.ParseString("select emp.name from emp filter in emp.dept_id " + failing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(db, q); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("failing subquery: got %v, want %v", err, want)
	}
}

func TestResultEqual(t *testing.T) {
	db := testDB()
	a := mustExec(t, db, "select emp.name from emp order asc emp.name")
	b := mustExec(t, db, "select emp.name from emp order desc emp.name")
	if !a.Equal(b) {
		t.Error("results with same multiset should be Equal (order-insensitive)")
	}
	c := mustExec(t, db, "select emp.name from emp filter > emp.salary 85")
	if a.Equal(c) {
		t.Error("different row sets should not be Equal")
	}
}

func TestExecuteErrors(t *testing.T) {
	db := testDB()
	bad := []string{
		"select emp.nosuch from emp",
		"select emp.name from nosuch",
		"select emp.name from emp filter > emp.nosuch 1",
		"select emp.name from emp group grouping emp.nosuch",
		"union select emp.name emp.salary from emp select dept.name from dept",
	}
	for _, line := range bad {
		q, err := ast.ParseString(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if _, err := Execute(db, q); err == nil {
			t.Errorf("Execute(%q): expected error", line)
		}
	}
}

func TestCellCompare(t *testing.T) {
	if N(1).Compare(N(2)) >= 0 || N(2).Compare(N(1)) <= 0 || N(1).Compare(N(1)) != 0 {
		t.Error("numeric compare broken")
	}
	if S("a").Compare(S("b")) >= 0 {
		t.Error("string compare broken")
	}
	if !(Null(Quantitative).Compare(N(0)) < 0) {
		t.Error("null should sort first")
	}
	early, late := T(date(2019, 1, 1)), T(date(2020, 1, 1))
	if early.Compare(late) >= 0 {
		t.Error("temporal compare broken")
	}
}

func TestCellString(t *testing.T) {
	if N(3).String() != "3" {
		t.Errorf("N(3) = %q", N(3).String())
	}
	if N(3.5).String() != "3.5" {
		t.Errorf("N(3.5) = %q", N(3.5).String())
	}
	if S("x").String() != "x" {
		t.Errorf("S(x) = %q", S("x").String())
	}
	if Null(Categorical).String() != "NULL" {
		t.Errorf("null = %q", Null(Categorical).String())
	}
}

// fmtCellString is Cell.String as it was written with fmt, the oracle for
// the strconv form.
func fmtCellString(c Cell) string {
	if c.Null {
		return "NULL"
	}
	switch c.Kind {
	case Quantitative:
		if c.Num == math.Trunc(c.Num) && math.Abs(c.Num) < 1e15 {
			return fmt.Sprintf("%d", int64(c.Num))
		}
		return fmt.Sprintf("%g", c.Num)
	case Temporal:
		return c.Time.Format("2006-01-02 15:04:05")
	default:
		return c.Str
	}
}

// Property: Cell.String and appendText print what fmt printed, for special
// values, both sides of the 1e15 integer boundary and random bit patterns.
func TestCellStringMatchesFmt(t *testing.T) {
	nums := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 1e-7, 1e20, 1e21, 1e100,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 - 0.5, 1e15 + 2, 999999999999999.9,
		math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 2}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			nums = append(nums, math.Float64frombits(r.Uint64()))
		case 1:
			nums = append(nums, float64(r.Int63n(4e15)-2e15))
		default:
			nums = append(nums, r.NormFloat64()*math.Pow(10, float64(r.Intn(40)-20)))
		}
	}
	cells := []Cell{Null(Quantitative), Null(Temporal), S(""), S("x\x1fy"),
		T(date(2021, 11, 5)), T(time.Date(-12, 3, 4, 5, 6, 7, 8, time.UTC))}
	for _, f := range nums {
		cells = append(cells, N(f))
	}
	for _, c := range cells {
		want := fmtCellString(c)
		if got := c.String(); got != want {
			t.Errorf("%#v: String %q, fmt %q", c, got, want)
		}
		if got := string(c.appendText([]byte("p"))); got != "p"+want {
			t.Errorf("%#v: appendText %q, fmt %q", c, got, want)
		}
	}
}

// binCell's labels are the ones fmt printed.
func TestBinLabelsMatchFmt(t *testing.T) {
	for h := 0; h < 24; h++ {
		for m := 0; m < 60; m += 7 {
			c := T(time.Date(2020, time.Month(1+h%12), 1, h, m, 0, 0, time.UTC))
			for _, want := range []struct {
				bin   ast.BinUnit
				label string
			}{
				{ast.BinMinute, fmt.Sprintf("%02d:%02d", h, m)},
				{ast.BinHour, fmt.Sprintf("%02d:00", h)},
				{ast.BinQuarter, fmt.Sprintf("Q%d", (int(c.Time.Month())-1)/3+1)},
				{ast.BinYear, fmt.Sprintf("%d", c.Time.Year())},
			} {
				if got := binCell(c, ast.Group{Bin: want.bin}, 0, 1); got.Str != want.label {
					t.Errorf("%v bin of %v: %q, want %q", want.bin, c.Time, got.Str, want.label)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := r.NormFloat64() * math.Pow(10, float64(r.Intn(12)-4))
		min := v - r.Float64()*100
		size := math.Ceil(r.Float64() * 50)
		idx := int(math.Floor((v - min) / size))
		lo := min + float64(idx)*size
		want := fmt.Sprintf("[%g,%g)", lo, lo+size)
		if got := binCell(N(v), ast.Group{Bin: ast.BinNumeric}, min, size); got.Str != want {
			t.Errorf("numeric bin of %v: %q, want %q", v, got.Str, want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "x%", false},
		{"hello", "hello", true},
		{"Hello", "hello", true}, // case-insensitive
		{"", "%", true},
		{"abc", "", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	st := ComputeStats([]*Database{testDB()})
	if st.Tables != 2 || st.Columns != 7 || st.Rows != 9 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxColumns != 5 || st.MinColumns != 2 {
		t.Errorf("col bounds = %d/%d", st.MaxColumns, st.MinColumns)
	}
	if st.TypeCounts[Quantitative] != 4 || st.TypeCounts[Categorical] != 2 || st.TypeCounts[Temporal] != 1 {
		t.Errorf("type counts = %v", st.TypeCounts)
	}
}

func TestDomainsAndTablesPerDomain(t *testing.T) {
	db1, db2 := testDB(), testDB()
	db2.Domain = "Sport"
	ds := Domains([]*Database{db1, db2})
	if len(ds) != 2 || ds[0] != "Business" || ds[1] != "Sport" {
		t.Errorf("domains = %v", ds)
	}
	per := TablesPerDomain([]*Database{db1, db2})
	if per["Business"] != 2 || per["Sport"] != 2 {
		t.Errorf("tables per domain = %v", per)
	}
}

func TestColumnTypeResolution(t *testing.T) {
	db := testDB()
	if db.ColumnType("emp", "salary") != Quantitative {
		t.Error("salary should be Q")
	}
	if db.ColumnType("emp", "hired") != Temporal {
		t.Error("hired should be T")
	}
	if db.ColumnType("emp", "name") != Categorical {
		t.Error("name should be C")
	}
	if db.ColumnType("emp", "*") != Quantitative {
		t.Error("* should resolve to Q")
	}
	if db.ColumnType("nosuch", "x") != Categorical {
		t.Error("unknown should default to C")
	}
}

// Property: group counts always sum to the number of filtered rows.
func TestQuickGroupCountsSum(t *testing.T) {
	db := testDB()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		threshold := float64(50 + r.Intn(80))
		q, err := ast.ParseString("select emp.dept_id count emp.* from emp group grouping emp.dept_id")
		if err != nil {
			return false
		}
		q.Left.Filter = &ast.Filter{
			Op:     ast.FilterGT,
			Attr:   ast.Attr{Column: "salary", Table: "emp"},
			Values: []ast.Value{ast.NumberValue(threshold)},
		}
		res, err := Execute(db, q)
		if err != nil {
			return false
		}
		total := 0.0
		for _, row := range res.Rows {
			total += row[1].Num
		}
		want := 0
		for _, row := range db.Table("emp").Rows {
			if row[2].Num > threshold {
				want++
			}
		}
		return total == float64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: set union cardinality is |A| + |B| - |A ∩ B| over distinct rows.
func TestQuickSetAlgebra(t *testing.T) {
	db := testDB()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := float64(60 + r.Intn(60))
		b := float64(60 + r.Intn(60))
		mk := func(op string) string {
			return op + " select emp.dept_id from emp filter > emp.salary " +
				ast.NumberValue(a).String() + " select emp.dept_id from emp filter < emp.salary " +
				ast.NumberValue(b).String()
		}
		u, err1 := ast.ParseString(mk("union"))
		i, err2 := ast.ParseString(mk("intersect"))
		if err1 != nil || err2 != nil {
			return false
		}
		ru, err1 := Execute(db, u)
		ri, err2 := Execute(db, i)
		if err1 != nil || err2 != nil {
			return false
		}
		// distinct cardinalities of each side:
		da, _ := ast.ParseString("select distinct emp.dept_id from emp filter > emp.salary " + ast.NumberValue(a).String())
		dbq, _ := ast.ParseString("select distinct emp.dept_id from emp filter < emp.salary " + ast.NumberValue(b).String())
		ra, err1 := Execute(db, da)
		rb, err2 := Execute(db, dbq)
		if err1 != nil || err2 != nil {
			return false
		}
		return len(ru.Rows) == len(ra.Rows)+len(rb.Rows)-len(ri.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
