// Repair scenario tests: each one damages a store the way a specific
// crash would and requires Repair to restore an fsck-clean, loadable
// state, reporting exactly what was salvaged and what was lost.

package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nvbench/internal/bench"
)

// mustRepair runs Repair and requires the store to verify and load
// afterwards — the postcondition every scenario shares.
func mustRepair(t *testing.T, st *Store) *RepairReport {
	t.Helper()
	rep, err := st.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	frep, err := st.Verify()
	if err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	if !frep.OK() {
		t.Fatalf("store still corrupt after repair: %+v", frep.Corrupt)
	}
	if _, _, err := st.Load(); err != nil {
		t.Fatalf("load after repair: %v", err)
	}
	return rep
}

// TestRepairDropsUnreferencedShardDatabase pins a trim/orphan consistency
// bug: when the lost entry was its shard's only reference to a database,
// the orphan pass moves the shard's db copy aside, so the trimmed shard
// manifest must drop the hash too — or fsck finds a manifest naming a
// moved artifact.
func TestRepairDropsUnreferencedShardDatabase(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	type use struct{ shard, db string }
	uses := map[use]int{}
	for _, ref := range m.Entries {
		uses[use{shardName(shardIndex(ref.Hash, m.ShardCount)), ref.DB}]++
	}
	var victim *EntryRef
	for i := range m.Entries {
		ref := &m.Entries[i]
		if uses[use{shardName(shardIndex(ref.Hash, m.ShardCount)), ref.DB}] == 1 {
			victim = ref
			break
		}
	}
	if victim == nil {
		t.Skip("no shard holds a solely-referenced database copy in this corpus")
	}
	shard := shardName(shardIndex(victim.Hash, m.ShardCount))
	flipByte(t, filepath.Join(dir, shardsDir, shard, entriesDir, victim.Hash+".json"))
	rep := mustRepair(t, st) // mustRepair includes the fsck that catches the stale reference
	if rep.EntriesLost != 1 {
		t.Fatalf("lost %d entries, want just the flipped one", rep.EntriesLost)
	}
	if _, err := os.Stat(filepath.Join(dir, lostFoundDir, shardsDir, shard, dbsDir, victim.DB+".json")); err != nil {
		t.Fatalf("the shard's unreferenced database copy was not moved aside: %v", err)
	}
}

func TestRepairCleanStoreIsNoop(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSave(t, dir, b)
	before := treeBytes(t, dir)
	rep := mustRepair(t, st)
	if !rep.Clean() || rep.Lossy() {
		t.Fatalf("clean store was not a no-op: %+v", rep)
	}
	sameTree(t, before, treeBytes(t, dir))
	var buf bytes.Buffer
	WriteRepair(&buf, rep)
	if !strings.Contains(buf.String(), "nothing to do") {
		t.Fatalf("report = %q, want the clean-store line", buf.String())
	}
}

func TestRepairSalvagesAroundFlippedEntry(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	victim := anyArtifact(t, dir, entriesDir)
	flipByte(t, victim)
	rep := mustRepair(t, st)
	if !rep.Lossy() || rep.EntriesLost != 1 || len(rep.CorruptMoved) != 1 {
		t.Fatalf("flipped entry: report = %+v, want exactly one lost entry", rep)
	}
	if rep.EntriesKept != len(m.Entries)-1 {
		t.Fatalf("kept %d entries, want %d", rep.EntriesKept, len(m.Entries)-1)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Entries) != len(m.Entries)-1 {
		t.Fatalf("loaded %d entries after repair, want %d", len(loaded.Entries), len(m.Entries)-1)
	}
	// Nothing is deleted: the damaged bytes moved to lost+found, mirroring
	// the shard layout (lost+found/shards/NN/entries/…).
	rel, err := filepath.Rel(dir, victim)
	if err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, lostFoundDir, rel)
	if _, err := os.Stat(moved); err != nil {
		t.Fatalf("flipped entry not preserved in lost+found: %v", err)
	}
	// Blast radius: exactly one shard needed healing.
	if len(rep.Shards) != 1 || rep.Shards[0].EntriesLost != 1 {
		t.Fatalf("shard report = %+v, want exactly one shard losing one entry", rep.Shards)
	}
	var buf bytes.Buffer
	WriteRepair(&buf, rep)
	if !strings.Contains(buf.String(), "lost 1 entries") {
		t.Fatalf("report does not state the loss:\n%s", buf.String())
	}
}

func TestRepairRollsBackUncommittedSave(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	// Simulate a second save that crashed inside one shard right after
	// writing one new entry artifact: shard begin logged, intent logged,
	// artifact on disk, no commit. Tweak the fake entry's ID until its hash
	// routes to an already-populated shard so the scenario is a real
	// interrupted shard save, not a foreign plant.
	shard := shardName(shardIndex(m.Entries[0].Hash, m.ShardCount))
	e := *b.Entries[0]
	var h string
	var data []byte
	for id := 999983; ; id++ {
		e.ID, e.PairID = id, id
		d, err := encodeEntry(&e, m.Entries[0].DB)
		if err != nil {
			t.Fatal(err)
		}
		if hh := hashBytes(d); shardName(shardIndex(hh, m.ShardCount)) == shard {
			h, data = hh, d
			break
		}
	}
	bx := st.shardBoxName(shard)
	if err := bx.journalBegin(journalRecord{Build: &m.Build, Shards: m.ShardCount}); err != nil {
		t.Fatal(err)
	}
	if err := bx.writeIntended(entriesDir+"/"+h+".json", h, data); err != nil {
		t.Fatal(err)
	}
	st.refreshStatus(m)
	if r := st.Status(); r.Journal != JournalClean || len(r.Shards) != 1 ||
		r.Shards[0].Shard != shard || r.Shards[0].Journal != JournalInProgress {
		t.Fatalf("setup: status = %+v, want exactly shard %s in-progress", st.Status(), shard)
	}
	rep := mustRepair(t, st)
	if !rep.RolledBack || rep.RolledForward {
		t.Fatalf("report = %+v, want a rollback", rep)
	}
	if rep.Lossy() {
		t.Fatalf("rollback lost committed data: %+v", rep)
	}
	if len(rep.OrphansMoved) != 1 || !strings.Contains(rep.OrphansMoved[0], h) {
		t.Fatalf("orphans moved = %v, want the uncommitted entry %s", rep.OrphansMoved, h)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Entries) != len(m.Entries) {
		t.Fatalf("rollback left %d entries, want the committed %d", len(loaded.Entries), len(m.Entries))
	}
	if r := st.Status(); r.Dirty() {
		t.Fatalf("status = %q after repair, want clean", r.String())
	}
}

func TestRepairRollsForwardLandedManifest(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	before := treeBytes(t, dir)
	// Simulate an idempotent re-save that crashed between the root merge's
	// last write and its commit: the root journal intends the merged
	// manifest and sum — the only artifacts a root merge owns — and both
	// are on disk and intact.
	root := st.rootBox()
	if err := root.journalBegin(journalRecord{Build: &m.Build, Shards: m.ShardCount}); err != nil {
		t.Fatal(err)
	}
	intend := func(rel string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if err := root.journalAppend(journalRecord{Op: opIntent, Path: rel, Hash: hashBytes(data)}); err != nil {
			t.Fatal(err)
		}
	}
	intend(manifestName)
	intend(manifestSumName)
	st.refreshStatus(m)
	if r := st.Status(); r.Journal != JournalInProgress || r.PendingMissing != 0 || r.PendingTorn != 0 {
		t.Fatalf("setup: status = %+v, want in-progress with all artifacts intact", r)
	}
	rep := mustRepair(t, st)
	if !rep.RolledForward || rep.RolledBack || rep.Lossy() {
		t.Fatalf("report = %+v, want a lossless roll-forward", rep)
	}
	if len(rep.OrphansMoved) != 0 || len(rep.CorruptMoved) != 0 {
		t.Fatalf("roll-forward moved artifacts aside: %+v", rep)
	}
	// Committing the landed save restores the exact uninterrupted tree.
	// The journal is excluded: repair's commit records only the index
	// intents, not the full artifact set a Save logs.
	after := treeBytes(t, dir)
	delete(before, journalName)
	delete(after, journalName)
	sameTree(t, before, after)
	if st.Status().Journal != JournalClean {
		t.Fatalf("journal = %s after roll-forward, want clean", st.Status().Journal)
	}
}

func TestRepairRebuildsTornManifestFromJournal(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	path := filepath.Join(dir, manifestName)
	mdata, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the manifest: only a prefix survived the crash.
	if err := os.WriteFile(path, mdata[:len(mdata)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mustRepair(t, st)
	if !rep.ManifestRebuilt {
		t.Fatalf("report = %+v, want a manifest rebuild", rep)
	}
	// Every shard manifest survived, so the root re-merge is lossless…
	if rep.Lossy() || rep.EntriesKept != len(m.Entries) || rep.DatabasesKept != len(m.Databases) {
		t.Fatalf("rebuild lost content: %+v, want %d entries / %d databases", rep, len(m.Entries), len(m.Databases))
	}
	// …and reproduces the content-bearing sections exactly: entry records
	// carry their IDs, pairs and database hashes. Only the informational
	// rejection/quarantine sections are gone — they live nowhere else.
	var orig Manifest
	if err := decodeStrict(mdata, &orig); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := st.loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt.Entries, orig.Entries) || !reflect.DeepEqual(rebuilt.Databases, orig.Databases) ||
		rebuilt.Build != orig.Build {
		t.Fatal("rebuilt manifest diverged from the original entries/databases/build")
	}
	if _, err := os.Stat(filepath.Join(dir, lostFoundDir, manifestName)); err != nil {
		t.Fatalf("torn manifest not preserved in lost+found: %v", err)
	}
}

// TestDamagedRootManifestFailsParseRule damages the root manifest four
// ways and rewrites its sum to match, so the parse rule alone decides:
// Open still succeeds (it only peeks), Load and Verify reject the
// manifest, and Repair moves it aside and re-merges the original entries
// from the shards.
func TestDamagedRootManifestFailsParseRule(t *testing.T) {
	_, b := testBench(t)
	want := bench.Digest(b)
	damage := []struct {
		name string
		fn   func(m *Manifest, mdata []byte) []byte
	}{
		{"undecodable", func(_ *Manifest, mdata []byte) []byte { return mdata[:len(mdata)/2] }},
		{"unknown field", func(_ *Manifest, mdata []byte) []byte {
			return bytes.Replace(mdata, []byte("{\n"), []byte("{\n  \"bogus\": 1,\n"), 1)
		}},
		{"format 3", func(_ *Manifest, mdata []byte) []byte {
			return bytes.Replace(mdata, []byte(`"format_version": 2,`), []byte(`"format_version": 3,`), 1)
		}},
		{"shard count 3", func(m *Manifest, mdata []byte) []byte {
			return bytes.Replace(mdata, []byte(fmt.Sprintf(`"shard_count": %d,`, m.ShardCount)), []byte(`"shard_count": 3,`), 1)
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			_, m := mustSave(t, dir, b)
			path := filepath.Join(dir, manifestName)
			mdata, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := d.fn(m, mdata)
			if bytes.Equal(bad, mdata) {
				t.Fatal("damage left the manifest unchanged")
			}
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestSumName), []byte(hashBytes(bad)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, _, err := st.Load(); err == nil {
				t.Fatal("Load accepted a manifest that fails the parse rule")
			}
			if frep, err := st.Verify(); err != nil || frep.OK() {
				t.Fatalf("Verify = (%+v, %v), want a finding", frep, err)
			}
			rep := mustRepair(t, st)
			if !slices.Contains(rep.CorruptMoved, manifestName) {
				t.Fatalf("corrupt moved = %v, want %s", rep.CorruptMoved, manifestName)
			}
			loaded, _, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if got := bench.Digest(loaded); got != want {
				t.Fatalf("repaired store loads digest %s, want the original %s", got, want)
			}
		})
	}
}

// TestLegacyStatsFileIsInert plants the torn stats.json an older build
// could leave at the store root. The store no longer writes or reads that
// file, so nothing may notice it: Open reports clean, Verify passes, Load
// succeeds with zero Stats, Repair has nothing to do, and the bytes stay
// where they are.
func TestLegacyStatsFileIsInert(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	mustSave(t, dir, b)
	path := filepath.Join(dir, "stats.json")
	torn := []byte("{\n  \"Workers\": 4,\n  \"PairsProc")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := st.Status(); rep.Dirty() || rep.TempsSwept != 0 || rep.String() != "clean" {
		t.Fatalf("Open status = %+v (%s), want clean", rep, rep)
	}
	frep, err := st.Verify()
	if err != nil || !frep.OK() {
		t.Fatalf("Verify = %+v, %v; want OK", frep, err)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Stats != (bench.RunStats{}) {
		t.Fatalf("loaded Stats = %+v, want the zero value", loaded.Stats)
	}
	rrep, err := st.Repair()
	if err != nil || !rrep.Clean() {
		t.Fatalf("Repair = %+v, %v; want a clean no-op", rrep, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("stats.json after Repair = %q, %v; want its bytes untouched", got, err)
	}
}

// TestLegacyCacheDirIsInert plants what the per-pair cache of older
// builds left in a shard: a record under cache/ and a stray temp file
// beside it, in every copy of a single-copy and of a 2-replica store. The
// store no longer reads, verifies, sweeps or moves that directory, so
// nothing may notice it: Open reports clean, Verify, Scrub and Load
// agree, Load returns the saved benchmark, Repair has nothing to do, and
// the planted bytes stay where they are.
func TestLegacyCacheDirIsInert(t *testing.T) {
	_, b := testBench(t)
	want := bench.Digest(b)
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			dir := t.TempDir()
			_, m := mustSaveReplicated(t, dir, b, replicas)
			shard := shardName(shardIndex(m.Entries[0].Hash, m.ShardCount))
			copies := []string{filepath.Join(dir, shardsDir, shard)}
			if replicas > 1 {
				copies = nil
				for r := 0; r < replicas; r++ {
					copies = append(copies, filepath.Join(dir, replicasDir, replicaName(r), shardsDir, shard))
				}
			}
			planted := map[string][]byte{}
			for _, c := range copies {
				cache := filepath.Join(c, "cache")
				if err := os.MkdirAll(cache, 0o755); err != nil {
					t.Fatal(err)
				}
				planted[filepath.Join(cache, hashBytes([]byte("pair key"))+".json")] = []byte("0000\n{\"kept\":[]}")
				planted[filepath.Join(cache, ".k.json.tmp1")] = []byte("partial write")
			}
			for path, data := range planted {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep := st.Status(); rep.Dirty() || rep.TempsSwept != 0 || rep.String() != "clean" {
				t.Fatalf("Open status = %+v (%s), want clean", rep, rep)
			}
			frep, err := st.Verify()
			if err != nil || !frep.OK() {
				t.Fatalf("Verify = %+v, %v; want OK", frep, err)
			}
			srep, err := st.Scrub(context.Background())
			if err != nil || !srep.Clean() {
				t.Fatalf("Scrub = %+v, %v; want clean", srep, err)
			}
			loaded, _, err := st.Load()
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if got := bench.Digest(loaded); got != want {
				t.Fatalf("Load digest = %s, want the saved %s", got, want)
			}
			rrep, err := st.Repair()
			if err != nil || !rrep.Clean() {
				t.Fatalf("Repair = %+v, %v; want a clean no-op", rrep, err)
			}
			for path, data := range planted {
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s after Repair = %q, %v; want its bytes untouched", path, got, err)
				}
			}
		})
	}
}

func TestWriteRepairCapsMovedList(t *testing.T) {
	// 20 moved artifacts print in full; the 21st starts the trailer.
	rep := &RepairReport{}
	for i := 0; i < 20; i++ {
		rep.CorruptMoved = append(rep.CorruptMoved, "entries/"+strings.Repeat("a", 2)+string(rune('a'+i))+".json")
	}
	var buf bytes.Buffer
	WriteRepair(&buf, rep)
	if strings.Contains(buf.String(), "more") {
		t.Fatalf("20 moved artifacts must print without a trailer:\n%s", buf.String())
	}
	rep.OrphansMoved = []string{"dbs/zz.json", "dbs/zy.json", "dbs/zx.json"}
	buf.Reset()
	WriteRepair(&buf, rep)
	out := buf.String()
	if !strings.Contains(out, "… and 3 more") {
		t.Fatalf("23 moved artifacts must cap at 20 with a trailer:\n%s", out)
	}
	if got := strings.Count(out, "lost+found/"); got != 20 {
		t.Fatalf("listed %d artifacts, want 20:\n%s", got, out)
	}
}
