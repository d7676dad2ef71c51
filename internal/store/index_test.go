// Tests for the in-memory secondary indexes: LoadIndexes against a full
// scan after Save, Load and LoadPartial (and its error before either), a
// saved tree with no indexes/ path, the indexed query stack, and a store
// with a leftover indexes/ directory from an older build.

package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/vql"
)

// checkIndexesMatchScan asserts that, for every key of every indexed
// field, Lookup returns exactly the hashes a full scan of b selects —
// b's entries and m's hashes are positionally aligned.
func checkIndexesMatchScan(t *testing.T, st *Store, b *bench.Benchmark, m *Manifest) {
	t.Helper()
	idx, err := st.LoadIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := st.LoadIndexes(); again["db"] != idx["db"] {
		t.Fatal("a second LoadIndexes call built a new index set")
	}
	if len(idx) != len(IndexFields) {
		t.Fatalf("loaded %d indexes, want %d", len(idx), len(IndexFields))
	}
	if len(b.Entries) != len(m.Entries) {
		t.Fatalf("%d entries, %d manifest refs", len(b.Entries), len(m.Entries))
	}
	fieldOf := map[string]func(*bench.Entry) string{
		"chart":    func(e *bench.Entry) string { return e.Chart.String() },
		"db":       func(e *bench.Entry) string { return e.DB.Name },
		"hardness": func(e *bench.Entry) string { return e.Hardness.String() },
	}
	for _, f := range IndexFields {
		ix := idx[f]
		if ix == nil || ix.Field() != f {
			t.Fatalf("index %s missing or misnamed: %+v", f, ix)
		}
		want := map[string][]string{}
		for i, e := range b.Entries {
			k := fieldOf[f](e)
			want[k] = append(want[k], m.Entries[i].Hash)
		}
		for key, hashes := range want {
			sort.Strings(hashes)
			if got := ix.Lookup(key); !reflect.DeepEqual(got, hashes) {
				t.Fatalf("%s index lookup %q = %d hashes, want %d", f, key, len(got), len(hashes))
			}
		}
		if len(ix.keys) != len(want) {
			t.Fatalf("%s index has %d keys, a scan finds %d", f, len(ix.keys), len(want))
		}
		if got := ix.Lookup("no-such-key"); got != nil {
			t.Fatalf("%s index lookup of unknown key = %v, want nil", f, got)
		}
	}
}

func TestSaveLoadIndexesRoundTrip(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadIndexes(); err == nil {
		t.Fatal("LoadIndexes before any Save or Load succeeded")
	}
	m, err := st.Save(b, BuildInfo{Seed: testCfg.Seed, Fingerprint: Fingerprint(bench.DefaultOptions())})
	if err != nil {
		t.Fatal(err)
	}
	checkIndexesMatchScan(t, st, b, m)

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadIndexes(); err == nil {
		t.Fatal("LoadIndexes on a freshly opened store succeeded before Load")
	}
	lb, lm, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkIndexesMatchScan(t, st, lb, lm)

	// LoadPartial drops the damaged shard's entries from the benchmark and
	// the manifest alike, so the indexes cover only what is served.
	flipByte(t, anyArtifact(t, dir, entriesDir))
	pb, pm, fails, err := st.LoadPartial()
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 || len(pm.Entries) >= len(lm.Entries) {
		t.Fatalf("partial load: %d failed shards, %d of %d entries", len(fails), len(pm.Entries), len(lm.Entries))
	}
	checkIndexesMatchScan(t, st, pb, pm)
}

func TestIndexSaveIsIdempotent(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSave(t, dir, b)
	before := treeBytes(t, dir)
	for rel := range before {
		if strings.HasPrefix(rel, "indexes/") {
			t.Fatalf("saved store holds %s", rel)
		}
	}
	if _, err := st.Save(b, BuildInfo{Seed: testCfg.Seed, Fingerprint: Fingerprint(bench.DefaultOptions())}); err != nil {
		t.Fatal(err)
	}
	sameTree(t, before, treeBytes(t, dir))
}

// TestIndexedQueryMatchesScan drives the full stack the /api/query
// endpoint uses: benchmark loaded from the store, its indexes fed to a
// vql.Engine, and the acceptance query answered identically by the index
// scan and the full scan — with strictly fewer rows touched.
func TestIndexedQueryMatchesScan(t *testing.T) {
	_, b := testBench(t)
	st, m := mustSave(t, t.TempDir(), b)
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := st.LoadIndexes()
	if err != nil {
		t.Fatal(err)
	}

	indexed := vql.NewEngine(loaded)
	vidx := map[string]vql.Index{}
	for f, ix := range idx {
		vidx[f] = ix
	}
	if err := indexed.SetIndexes(m.EntryHashes(), vidx); err != nil {
		t.Fatal(err)
	}
	scan := vql.NewEngine(loaded)

	db := b.Entries[0].DB.Name
	q := "SELECT hardness, chart, count(*) FROM entries WHERE db = '" + db +
		"' GROUP BY 1, 2 ORDER BY 3 DESC"
	got, err := indexed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("indexed rows differ from scan rows:\n%v\n%v", got.Rows, want.Rows)
	}
	if got.Index != "db" {
		t.Fatalf("indexed query used index %q, want db", got.Index)
	}
	if !strings.HasPrefix(got.Plan, "index scan on entries: db =") {
		t.Fatalf("indexed plan = %q, want index scan", got.Plan)
	}
	if got.Scanned >= want.Scanned {
		t.Fatalf("index scanned %d rows, full scan %d — no win", got.Scanned, want.Scanned)
	}
	if len(got.Rows) == 0 {
		t.Fatal("acceptance query returned no rows")
	}
}

// TestLeftoverIndexesDirIsIgnored covers a store saved by an older build,
// which wrote indexes/<field>.json: whatever lies under indexes/ is never
// read, verified, repaired or swept.
func TestLeftoverIndexesDirIsIgnored(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	mustSave(t, dir, b)
	junk := map[string]string{
		"indexes/db.json":        "not json",
		"indexes/bogus.json":     "{}\n",
		"indexes/.db.json.tmp42": "torn",
	}
	if err := os.MkdirAll(filepath.Join(dir, "indexes"), 0o755); err != nil {
		t.Fatal(err)
	}
	for rel, data := range junk {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(rel)), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store with a leftover indexes/ reported corrupt: %+v", rep.Corrupt)
	}
	rrep, err := st.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Clean() {
		t.Fatalf("repair of a store with a leftover indexes/ did work: %+v", rrep)
	}
	tree := treeBytes(t, dir)
	for rel, data := range junk {
		if string(tree[rel]) != data {
			t.Fatalf("%s changed to %q", rel, tree[rel])
		}
	}
	loaded, m, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkIndexesMatchScan(t, st, loaded, m)
	idx, err := st.LoadIndexes()
	if err != nil {
		t.Fatal(err)
	}
	eng := vql.NewEngine(loaded)
	if err := eng.SetIndexes(m.EntryHashes(), map[string]vql.Index{"db": idx["db"]}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT count(*) FROM entries WHERE db = '" + loaded.Entries[0].DB.Name + "'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "db" || len(res.Rows) != 1 || res.Rows[0][0].Text() == "0" {
		t.Fatalf("indexed query over a store with a leftover indexes/: index %q, rows %v", res.Index, res.Rows)
	}
}
