package spider

import (
	"testing"

	"nvbench/internal/ast"
	"nvbench/internal/dataset"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) || len(a.Databases) != len(b.Databases) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.Pairs), len(a.Databases), len(b.Pairs), len(b.Databases))
	}
	for i := range a.Pairs {
		if a.Pairs[i].SQL != b.Pairs[i].SQL || a.Pairs[i].NL != b.Pairs[i].NL {
			t.Fatalf("pair %d differs:\n  %q\n  %q", i, a.Pairs[i].SQL, b.Pairs[i].SQL)
		}
	}
}

// TestGenerateNegativeLiteralSeed pins seed 71, whose corpus carries a
// negative literal (capacity > -0.12) that the SQL lexer once rejected.
func TestGenerateNegativeLiteralSeed(t *testing.T) {
	if _, err := Generate(Config{Seed: 71, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("expected error for zero config")
	}
}

func TestCorpusShape(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Databases) != TestConfig().NumDatabases {
		t.Fatalf("databases = %d", len(c.Databases))
	}
	if len(c.Pairs) < TestConfig().NumDatabases*TestConfig().PairsPerDB/2 {
		t.Fatalf("too few pairs: %d", len(c.Pairs))
	}
	for _, db := range c.Databases {
		if len(db.Tables) < 2 {
			t.Errorf("db %s has %d tables, want >= 2", db.Name, len(db.Tables))
		}
		if db.Domain == "" {
			t.Errorf("db %s has no domain", db.Name)
		}
		for _, tbl := range db.Tables {
			if len(tbl.Rows) == 0 {
				t.Errorf("table %s.%s has no rows", db.Name, tbl.Name)
			}
			if tbl.ColumnIndex("id") != 0 {
				t.Errorf("table %s.%s missing leading id column", db.Name, tbl.Name)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("table %s.%s row width mismatch", db.Name, tbl.Name)
				}
			}
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range c.Databases {
		for _, fk := range db.ForeignKeys {
			from, to := db.Table(fk.FromTable), db.Table(fk.ToTable)
			if from == nil || to == nil {
				t.Fatalf("db %s: dangling FK %+v", db.Name, fk)
			}
			if from.ColumnIndex(fk.FromColumn) < 0 || to.ColumnIndex(fk.ToColumn) < 0 {
				t.Fatalf("db %s: FK columns missing %+v", db.Name, fk)
			}
			// Every FK value must reference an existing id.
			toIDs := map[string]bool{}
			for _, row := range to.Rows {
				toIDs[row[to.ColumnIndex(fk.ToColumn)].String()] = true
			}
			ci := from.ColumnIndex(fk.FromColumn)
			for _, row := range from.Rows {
				if !toIDs[row[ci].String()] {
					t.Fatalf("db %s: FK %s.%s value %s dangles", db.Name, fk.FromTable, fk.FromColumn, row[ci])
				}
			}
		}
	}
}

func TestPairsParseAndExecute(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Pairs {
		if p.NL == "" || p.SQL == "" {
			t.Fatalf("pair %d missing text", p.ID)
		}
		if err := p.Query.Validate(); err != nil {
			t.Fatalf("pair %d (%q) invalid AST: %v", p.ID, p.SQL, err)
		}
		if _, err := dataset.Execute(p.DB, p.Query); err != nil {
			t.Fatalf("pair %d (%q) failed to execute: %v", p.ID, p.SQL, err)
		}
	}
}

func TestHardnessMix(t *testing.T) {
	cfg := TestConfig()
	cfg.NumDatabases = 30
	cfg.PairsPerDB = 30
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ast.Hardness]int{}
	for _, p := range c.Pairs {
		counts[p.Hardness]++
	}
	total := len(c.Pairs)
	for _, h := range ast.AllHardness {
		if counts[h] == 0 {
			t.Errorf("no %v pairs generated", h)
		}
	}
	// Medium should dominate (Spider/Figure 10 shape), and extra hard
	// should be the smallest bucket.
	if counts[ast.Medium] <= counts[ast.Easy] || counts[ast.Medium] <= counts[ast.Hard] {
		t.Errorf("medium should dominate: %v (total %d)", counts, total)
	}
	if counts[ast.ExtraHard] >= counts[ast.Medium] {
		t.Errorf("extra hard should be rare: %v", counts)
	}
}

func TestColumnTypeMix(t *testing.T) {
	cfg := TestConfig()
	cfg.NumDatabases = 40
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.ComputeStats(c.Databases)
	total := st.TypeCounts[dataset.Categorical] + st.TypeCounts[dataset.Temporal] + st.TypeCounts[dataset.Quantitative]
	cFrac := float64(st.TypeCounts[dataset.Categorical]) / float64(total)
	tFrac := float64(st.TypeCounts[dataset.Temporal]) / float64(total)
	qFrac := float64(st.TypeCounts[dataset.Quantitative]) / float64(total)
	// Paper: C 68.78%, T 11.58%, Q 19.64%. Accept generous bands since the
	// generator trades exactness for naturalness.
	if cFrac < 0.35 || cFrac > 0.80 {
		t.Errorf("categorical fraction = %.2f", cFrac)
	}
	if tFrac < 0.03 || tFrac > 0.30 {
		t.Errorf("temporal fraction = %.2f", tFrac)
	}
	if qFrac < 0.10 || qFrac > 0.50 {
		t.Errorf("quantitative fraction = %.2f", qFrac)
	}
}

func TestDomainsCovered(t *testing.T) {
	cfg := TestConfig()
	cfg.NumDatabases = 60
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Domains(c.Databases)
	if len(ds) < 10 {
		t.Errorf("only %d domains covered", len(ds))
	}
	per := dataset.TablesPerDomain(c.Databases)
	top := ""
	max := 0
	for d, n := range per {
		if n > max {
			top, max = d, n
		}
	}
	// One of the weighted head domains should lead.
	head := map[string]bool{"Sport": true, "Customer": true, "School": true, "Shop": true, "Student": true}
	if !head[top] {
		t.Errorf("top domain = %s (%d tables), expected a head domain", top, max)
	}
}

func TestNLQualityBasics(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Pairs {
		if len(p.NL) < 10 {
			t.Errorf("pair %d NL too short: %q", p.ID, p.NL)
		}
		if p.NL[len(p.NL)-1] != '?' && p.NL[len(p.NL)-1] != '.' {
			t.Errorf("pair %d NL lacks terminal punctuation: %q", p.ID, p.NL)
		}
	}
}

// TestIdentifiersSafe guards the canonical token form: no generated table
// or column name may collide with a grammar keyword (a table literally
// named "order" once broke round-tripping).
func TestIdentifiersSafe(t *testing.T) {
	cfg := TestConfig()
	cfg.NumDatabases = 40
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range c.Databases {
		for _, tbl := range db.Tables {
			if !ast.ValidIdentifier(tbl.Name) {
				t.Errorf("table name %q is not a safe identifier", tbl.Name)
			}
			for _, col := range tbl.Columns {
				if !ast.ValidIdentifier(col.Name) && col.Name != "*" {
					t.Errorf("column name %q is not a safe identifier", col.Name)
				}
			}
		}
	}
}

func TestGeneratePairsForCustomDB(t *testing.T) {
	// A schema that shares no tables with the built-in domains.
	tbl := &dataset.Table{
		Name: "sensor",
		Columns: []dataset.Column{
			{Name: "id", Type: dataset.Categorical},
			{Name: "name", Type: dataset.Categorical},
			{Name: "region", Type: dataset.Categorical},
			{Name: "reading_value", Type: dataset.Quantitative},
		},
	}
	for i := 0; i < 40; i++ {
		tbl.Rows = append(tbl.Rows, []dataset.Cell{
			dataset.S(ast.NumberValue(float64(i)).String()),
			dataset.S([]string{"a", "b", "c", "d"}[i%4]),
			dataset.S([]string{"north", "south"}[i%2]),
			dataset.N(float64(10 + i*3)),
		})
	}
	db := &dataset.Database{Name: "iot", Domain: "Tech", Tables: []*dataset.Table{tbl}}
	pairs, err := GeneratePairsFor(db, 12, 9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 12 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for i, p := range pairs {
		if p.ID != 100+i {
			t.Errorf("pair %d has ID %d", i, p.ID)
		}
		if p.DB != db || p.NL == "" || p.SQL == "" {
			t.Fatalf("pair %d incomplete: %+v", i, p)
		}
		if err := p.Query.Validate(); err != nil {
			t.Fatalf("pair %d invalid: %v", i, err)
		}
		if _, err := dataset.Execute(db, p.Query); err != nil {
			t.Fatalf("pair %d (%s) does not execute: %v", i, p.SQL, err)
		}
	}
}

func TestGenerateDatabaseDeterministicAndIndependent(t *testing.T) {
	cfg := TestConfig()
	a, err := GenerateDatabase(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDatabase(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || len(a.Tables) != len(b.Tables) {
		t.Fatalf("repeat generation differs: %s/%d vs %s/%d", a.Name, len(a.Tables), b.Name, len(b.Tables))
	}
	for i := range a.Tables {
		if a.Tables[i].Name != b.Tables[i].Name || len(a.Tables[i].Rows) != len(b.Tables[i].Rows) {
			t.Fatalf("table %d differs between identical generations", i)
		}
	}

	// Independence: corpus-shape knobs must not change the database.
	other := cfg
	other.NumDatabases = 1
	other.PairsPerDB = 99
	c, err := GenerateDatabase(other, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != c.Name || len(a.Tables) != len(c.Tables) {
		t.Fatalf("corpus knobs leaked into GenerateDatabase: %s vs %s", a.Name, c.Name)
	}

	// Adjacent indexes produce distinct databases.
	d, err := GenerateDatabase(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name == a.Name {
		t.Fatalf("indexes 3 and 4 generated the same database %s", a.Name)
	}

	if _, err := GenerateDatabase(cfg, -1); err == nil {
		t.Fatal("negative index accepted")
	}
}
