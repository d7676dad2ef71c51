package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/dataset"
	"nvbench/internal/spider"
)

var testCfg = spider.Config{Seed: 5, NumDatabases: 4, PairsPerDB: 8, MaxRows: 150}

var (
	buildOnce sync.Once
	theCorpus *spider.Corpus
	theBench  *bench.Benchmark
)

// testBench builds one small benchmark shared (read-only) by the tests.
func testBench(t testing.TB) (*spider.Corpus, *bench.Benchmark) {
	t.Helper()
	buildOnce.Do(func() {
		c, err := spider.Generate(testCfg)
		if err != nil {
			panic(err)
		}
		b, err := bench.Build(c, bench.DefaultOptions())
		if err != nil {
			panic(err)
		}
		theCorpus, theBench = c, b
	})
	if len(theBench.Entries) == 0 {
		t.Fatal("test benchmark is empty")
	}
	return theCorpus, theBench
}

// treeBytes maps every file under root (relative slash path) to its bytes.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameTree(t *testing.T, a, b map[string][]byte) {
	t.Helper()
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Errorf("file %s missing from second tree", name)
			continue
		}
		if !bytes.Equal(data, other) {
			t.Errorf("file %s differs between trees", name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			t.Errorf("extra file %s in second tree", name)
		}
	}
}

func mustSave(t *testing.T, dir string, b *bench.Benchmark) (*Store, *Manifest) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Save(b, BuildInfo{Seed: testCfg.Seed, Fingerprint: Fingerprint(bench.DefaultOptions())})
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	if len(m.Entries) != len(b.Entries) {
		t.Fatalf("manifest has %d entries, want %d", len(m.Entries), len(b.Entries))
	}
	loaded, m2, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Entries) != len(m.Entries) {
		t.Fatalf("reloaded manifest has %d entries, want %d", len(m2.Entries), len(m.Entries))
	}
	if len(loaded.Entries) != len(b.Entries) {
		t.Fatalf("loaded %d entries, want %d", len(loaded.Entries), len(b.Entries))
	}
	dbPtr := map[string]any{}
	for i, e := range b.Entries {
		l := loaded.Entries[i]
		if l.ID != e.ID || l.PairID != e.PairID || l.SourceNL != e.SourceNL ||
			l.Manual != e.Manual || l.Hardness != e.Hardness || l.Chart != e.Chart {
			t.Fatalf("entry %d scalar fields diverged: %+v vs %+v", i, l, e)
		}
		if !l.Vis.Equal(e.Vis) {
			t.Fatalf("entry %d vis tree diverged:\n  %s\n  %s", i, l.Vis, e.Vis)
		}
		if !reflect.DeepEqual(l.NLs, e.NLs) {
			t.Fatalf("entry %d NLs diverged", i)
		}
		if !reflect.DeepEqual(l.Edit, e.Edit) {
			t.Fatalf("entry %d edit script diverged:\n  %+v\n  %+v", i, l.Edit, e.Edit)
		}
		if l.DB.Name != e.DB.Name || len(l.DB.Tables) != len(e.DB.Tables) {
			t.Fatalf("entry %d database diverged", i)
		}
		// Entries that shared a database in memory must share one after Load.
		if prev, ok := dbPtr[e.DB.Name]; ok && prev != any(l.DB) {
			t.Fatalf("entry %d does not share its database instance", i)
		}
		dbPtr[e.DB.Name] = l.DB
	}
	if !reflect.DeepEqual(loaded.Rejections, b.Rejections) {
		t.Fatalf("rejections diverged: %v vs %v", loaded.Rejections, b.Rejections)
	}
	// Run stats describe how the build ran, not what it produced; the store
	// does not keep them.
	if loaded.Stats != (bench.RunStats{}) {
		t.Fatalf("loaded Stats = %+v, want the zero value", loaded.Stats)
	}
	// The strongest form: re-saving the loaded benchmark reproduces the
	// first store byte for byte.
	dir2 := t.TempDir()
	st2, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Save(loaded, m.Build); err != nil {
		t.Fatal(err)
	}
	sameTree(t, treeBytes(t, dir), treeBytes(t, dir2))
}

// goldenManifestSum is the MANIFEST.sha256 of the testCfg store: the
// root hash of every byte the store writes for that build. A change that
// moves it changes the released artifact and must update it on purpose.
const goldenManifestSum = "8e20c7467cbba429a575fd136bb8a97863f0be48cb08f283f7292ac12e9ff41c"

func TestGoldenManifestDeterminism(t *testing.T) {
	// Two independent runs of the same build must serialize to
	// byte-identical stores — the determinism gate for released artifacts —
	// and to the pinned bytes, so a consistent shift fails too.
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i := range dirs {
		c, err := spider.Generate(testCfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bench.Build(c, bench.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mustSave(t, dirs[i], b)
	}
	a := treeBytes(t, dirs[0])
	sameTree(t, a, treeBytes(t, dirs[1]))
	if got := string(bytes.TrimSpace(a[manifestSumName])); got != goldenManifestSum {
		t.Fatalf("%s = %s, want the pinned %s", manifestSumName, got, goldenManifestSum)
	}
}

// flipByte flips one bit of one byte in the middle of a file.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("cannot corrupt empty file %s", path)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// anyArtifact returns one artifact path of the given kind (entriesDir or
// dbsDir), searching the shard directories of the store
// (the primary replica's on a replicated one).
func anyArtifact(t *testing.T, dir, sub string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, shardsDir, "*", sub, "*.json"))
	if err != nil || len(matches) == 0 {
		matches, err = filepath.Glob(filepath.Join(dir, replicasDir, "r0", shardsDir, "*", sub, "*.json"))
	}
	if err != nil || len(matches) == 0 {
		t.Fatalf("no artifacts under %s for %s", dir, sub)
	}
	return matches[0]
}

func TestVerifyCleanStore(t *testing.T) {
	_, b := testBench(t)
	st, m := mustSave(t, t.TempDir(), b)
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store reported corrupt: %+v", rep.Corrupt)
	}
	// Root manifest + root journal, then per
	// listed shard its manifest and journal, every entry artifact, and
	// each shard's own copy of every database it references.
	perShardDBs := map[string]map[string]bool{}
	for _, ref := range m.Entries {
		name := shardName(shardIndex(ref.Hash, m.ShardCount))
		if perShardDBs[name] == nil {
			perShardDBs[name] = map[string]bool{}
		}
		perShardDBs[name][ref.DB] = true
	}
	dbCopies := 0
	for _, dbs := range perShardDBs {
		dbCopies += len(dbs)
	}
	if want := 2 + 2*len(m.Shards) + len(m.Entries) + dbCopies; rep.Checked != want {
		t.Fatalf("checked %d artifacts, want %d", rep.Checked, want)
	}
}

func TestVerifyDetectsFlippedByte(t *testing.T) {
	_, b := testBench(t)
	for _, sub := range []string{entriesDir, dbsDir} {
		dir := t.TempDir()
		st, _ := mustSave(t, dir, b)
		flipByte(t, anyArtifact(t, dir, sub))
		rep, err := st.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Corrupt) != 1 {
			t.Fatalf("%s: corrupt = %+v, want exactly one finding", sub, rep.Corrupt)
		}
		if _, _, err := st.Load(); err == nil {
			t.Fatalf("%s: Load accepted a corrupted store", sub)
		}
	}
}

func TestVerifyDetectsManifestTampering(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSave(t, dir, b)
	flipByte(t, filepath.Join(dir, manifestName))
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("tampered manifest not detected")
	}
	if _, _, err := st.Load(); err == nil {
		t.Fatal("Load accepted a tampered manifest")
	}
}

// TestVerifyUndecodableManifestStillChecksJournal pins Verify's one exit
// for a root manifest that fails the parse rule: the walk still checks
// the root journal and sorts its findings, so a torn manifest left by a
// save in flight is reported with the incomplete save that explains it.
func TestVerifyUndecodableManifestStillChecksJournal(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	path := filepath.Join(dir, manifestName)
	mdata, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mdata[:len(mdata)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.rootBox().journalBegin(journalRecord{Build: &m.Build, Shards: m.ShardCount}); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 {
		t.Fatalf("checked %d artifacts, want the root manifest and the root journal", rep.Checked)
	}
	if len(rep.Corrupt) != 3 || rep.Corrupt[0].Path != journalName ||
		!strings.Contains(rep.Corrupt[0].Detail, "incomplete save") {
		t.Fatalf("corrupt = %+v, want the incomplete-save journal finding first, then the two manifest findings", rep.Corrupt)
	}
	for _, c := range rep.Corrupt[1:] {
		if c.Path != manifestName {
			t.Fatalf("corrupt = %+v, want the other findings on %s", rep.Corrupt, manifestName)
		}
	}
}

func TestVerifyDetectsMissingArtifact(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSave(t, dir, b)
	if err := os.Remove(anyArtifact(t, dir, entriesDir)); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing artifact not detected")
	}
}

func TestFingerprintSeparatesConfigs(t *testing.T) {
	a := bench.DefaultOptions()
	b := bench.DefaultOptions()
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical configs must share a fingerprint")
	}
	b.MaxVisPerPair++
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("config change must change the fingerprint")
	}
	c := bench.DefaultOptions()
	c.Edit.Smooth = false
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("editor change must change the fingerprint")
	}
	// Robustness knobs change how a build runs, not what it produces.
	d := bench.DefaultOptions()
	d.Workers, d.Retries = 7, 9
	if Fingerprint(a) != Fingerprint(d) {
		t.Fatal("worker/retry knobs must not change the fingerprint")
	}
}

func TestLoadMissingStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); err == nil {
		t.Fatal("Load of an empty store must error")
	}
	if _, err := st.Verify(); err == nil {
		t.Fatal("Verify of an empty store must error")
	}
}

// TestOpenRefusesFormat1 checks the one answer a flat pre-shard (format
// 1) store gets: Open fails with an error naming the format and the
// rebuild, before it sweeps temps or touches anything else on disk.
func TestOpenRefusesFormat1(t *testing.T) {
	dir := t.TempDir()
	mdata, err := canonicalJSON(&Manifest{FormatVersion: 1, Databases: []string{}, Entries: []EntryRef{}})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		manifestName:    mdata,
		manifestSumName: []byte(hashBytes(mdata) + "\n"),
		journalName:     concatLines(mustLine(t, journalRecord{Op: opBegin}), mustLine(t, journalRecord{Op: opCommit})),
		// Stray temps from an interrupted write: a sweeping Open would
		// remove them.
		"." + manifestName + ".tmp1":                []byte("torn"),
		entriesDir + "/.x.json.tmp2":                []byte("torn"),
		entriesDir + "/" + hashBytes(nil) + ".json": nil,
	}
	for rel, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := treeBytes(t, dir)
	st, err := Open(dir)
	if err == nil || !strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("Open of a format-1 store = (%v, %v), want the format 1 rebuild error", st, err)
	}
	sameTree(t, before, treeBytes(t, dir))
}

// TestUnterminatedVisEscapeDegrades pins a tokenizer bound: a vis line
// that ends inside a quoted value right after a backslash once sliced
// past the end of the line and panicked. The entry decoder must degrade
// with an error instead.
func TestUnterminatedVisEscapeDegrades(t *testing.T) {
	const vis = "\"\\"
	rec := &entryRecord{Vis: vis, Chart: "none", Hardness: "easy", NLs: []string{"q"}}
	if _, err := rec.toEntry(&dataset.Database{Name: "x"}); err == nil {
		t.Fatal("toEntry accepted an unterminated escape")
	}
}
