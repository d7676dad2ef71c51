// Journal and crash-state tests: what a committed save records, how
// recovery classifies every journal shape, the temp-file sweep at Open,
// and the Status diagnosis of an interrupted save.

package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustLine(t testing.TB, rec journalRecord) []byte {
	t.Helper()
	line, err := journalLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func concatLines(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func readJournalFile(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJournalRecordsCommittedSave(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	// The root journal frames the merge: begin (with build info and the
	// shard count of the save), the manifest and sum intents, commit.
	j := st.rootBox().readJournal()
	if j.State != JournalClean {
		t.Fatalf("root journal state = %s, want clean", j.State)
	}
	if j.BadLines != 0 || j.TornTail {
		t.Fatalf("clean root journal reported damage: bad=%d torn=%t", j.BadLines, j.TornTail)
	}
	if j.Begin == nil || j.Begin.Build == nil || j.Begin.Build.Seed != testCfg.Seed {
		t.Fatalf("root begin record did not carry build info: %+v", j.Begin)
	}
	if j.Begin.Shards != m.ShardCount {
		t.Fatalf("root begin record carries shard count %d, want %d", j.Begin.Shards, m.ShardCount)
	}
	if len(j.Intents) != 2 {
		t.Fatalf("root journal holds %d intents, want manifest + sum", len(j.Intents))
	}
	hashes := j.intentHashes()
	if hashes[manifestName] == "" || hashes[manifestSumName] == "" {
		t.Fatal("root journal does not record the manifest/sum intents")
	}

	// Each shard's own journal frames that shard's save: every database
	// copy and entry it owns, plus its shard manifest and sum.
	groups := map[string][]EntryRef{}
	for _, ref := range m.Entries {
		name := shardName(shardIndex(ref.Hash, m.ShardCount))
		groups[name] = append(groups[name], ref)
	}
	if len(groups) < 2 {
		t.Fatalf("test benchmark only populates %d shards; want at least 2 for a meaningful test", len(groups))
	}
	for name, refs := range groups {
		sj := st.shardBoxName(name).readJournal()
		if sj.State != JournalClean {
			t.Fatalf("shard %s journal state = %s, want clean", name, sj.State)
		}
		if sj.Begin == nil || sj.Begin.Build == nil || sj.Begin.Shards != m.ShardCount {
			t.Fatalf("shard %s begin record incomplete: %+v", name, sj.Begin)
		}
		dbs := map[string]bool{}
		for _, ref := range refs {
			dbs[ref.DB] = true
		}
		if want := len(dbs) + len(refs) + 2; len(sj.Intents) != want {
			t.Fatalf("shard %s journal holds %d intents, want %d", name, len(sj.Intents), want)
		}
		sh := sj.intentHashes()
		for _, ref := range refs {
			if sh[entriesDir+"/"+ref.Hash+".json"] != ref.Hash {
				t.Fatalf("shard %s: entry %s has no matching intent", name, ref.Hash)
			}
		}
	}
	// Rotation: an idempotent re-save must leave byte-identical journal
	// bytes everywhere — every journal is a pure function of the build.
	before := map[string][]byte{"": readJournalFile(t, dir)}
	for name := range groups {
		before[name] = readJournalFile(t, filepath.Join(dir, shardsDir, name))
	}
	if _, err := st.Save(b, m.Build); err != nil {
		t.Fatal(err)
	}
	for name, prev := range before {
		jdir := dir
		if name != "" {
			jdir = filepath.Join(dir, shardsDir, name)
		}
		if after := readJournalFile(t, jdir); !bytes.Equal(prev, after) {
			t.Fatalf("re-save changed journal bytes (shard %q)", name)
		}
	}
}

func TestRecoverJournalStates(t *testing.T) {
	begin := mustLine(t, journalRecord{Op: opBegin, Build: &BuildInfo{Seed: 9}})
	intent := mustLine(t, journalRecord{Op: opIntent, Path: "entries/ab.json", Hash: "ab"})
	commit := mustLine(t, journalRecord{Op: opCommit})
	flipped := append([]byte(nil), intent...)
	flipped[len(flipped)/2] ^= 0x01

	cases := []struct {
		name    string
		data    []byte
		state   JournalState
		intents int
		bad     int
		torn    bool
	}{
		{"empty", nil, JournalCorrupt, 0, 0, false},
		{"garbage", []byte("not a journal\nat all\n"), JournalCorrupt, 0, 2, false},
		{"begin only", begin, JournalInProgress, 0, 0, false},
		{"begin and intent", concatLines(begin, intent), JournalInProgress, 1, 0, false},
		{"committed", concatLines(begin, intent, commit), JournalClean, 1, 0, false},
		{"second save in flight", concatLines(begin, commit, begin, intent), JournalInProgress, 1, 0, false},
		{"flipped interior record", concatLines(begin, flipped, commit), JournalClean, 0, 1, false},
		{"torn tail", concatLines(begin, intent, commit[:len(commit)/2]), JournalInProgress, 1, 0, true},
		{"torn begin alone", begin[:len(begin)/2], JournalCorrupt, 0, 0, true},
		// Fuzz-found: intact records outside any save are misplaced, never
		// recovered as state.
		{"intent before any begin", intent, JournalCorrupt, 0, 1, false},
		{"orphan commit", commit, JournalCorrupt, 0, 1, false},
	}
	for _, tc := range cases {
		j := recoverJournal(tc.data)
		if j.State != tc.state || len(j.Intents) != tc.intents || j.BadLines != tc.bad || j.TornTail != tc.torn {
			t.Errorf("%s: got state=%s intents=%d bad=%d torn=%t, want state=%s intents=%d bad=%d torn=%t",
				tc.name, j.State, len(j.Intents), j.BadLines, j.TornTail, tc.state, tc.intents, tc.bad, tc.torn)
		}
	}
}

func TestJournalAppendHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	begin := mustLine(t, journalRecord{Op: opBegin, Build: &BuildInfo{Seed: 2}})
	commit := mustLine(t, journalRecord{Op: opCommit})
	torn := concatLines(begin, commit[:len(commit)/3])
	if err := os.WriteFile(filepath.Join(dir, journalName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.rootBox().journalAppend(journalRecord{Op: opCommit}); err != nil {
		t.Fatal(err)
	}
	j := st.rootBox().readJournal()
	if j.State != JournalClean || j.TornTail {
		t.Fatalf("append over a torn tail: state=%s torn=%t, want clean journal", j.State, j.TornTail)
	}
	// The healed prefix is now one interior bad line, not a torn tail.
	if j.BadLines != 1 {
		t.Fatalf("bad lines = %d, want the healed torn prefix counted once", j.BadLines)
	}
}

// TestOpenSweepsTempFiles is the regression test for stray temp files: an
// interrupted write's .<name>.tmp* leftovers are removed at Open and never
// counted by the fsck walk.
func TestOpenSweepsTempFiles(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	// One stray at the root and two inside a populated shard — the sweep
	// must reach into every shard directory.
	shard := shardName(shardIndex(m.Entries[0].Hash, m.ShardCount))
	plant := []string{
		filepath.Join(dir, ".MANIFEST.json.tmp123"),
		filepath.Join(dir, shardsDir, shard, entriesDir, ".deadbeef.json.tmp42"),
		filepath.Join(dir, shardsDir, shard, dbsDir, ".cafef00d.json.tmp7"),
	}
	for _, p := range plant {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fsck walk ignores them even before any sweep.
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck counted temp files as corruption: %+v", rep.Corrupt)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Status().TempsSwept; got != len(plant) {
		t.Fatalf("Open swept %d temp files, want %d", got, len(plant))
	}
	for _, p := range plant {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("temp file %s survived Open", p)
		}
	}
	if rep, err := st2.Verify(); err != nil || !rep.OK() {
		t.Fatalf("store dirty after sweep: %+v, %v", rep, err)
	}
}

func TestStatusDiagnosesInterruptedSave(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSave(t, dir, b)
	if got := st.Status(); got.Journal != JournalClean || got.String() != "clean" {
		t.Fatalf("fresh save diagnosed as %q", got.String())
	}

	// Simulate a shard save that crashed after intending two artifacts: one
	// never reached disk, one landed torn. The damage must be diagnosed on
	// that shard — and only that shard.
	shard := shardName(shardIndex(m.Entries[0].Hash, m.ShardCount))
	bx := st.shardBoxName(shard)
	if err := bx.journalBegin(journalRecord{Build: &m.Build, Shards: m.ShardCount}); err != nil {
		t.Fatal(err)
	}
	missing := strings.Repeat("a", 64)
	if err := bx.journalAppend(journalRecord{Op: opIntent, Path: entriesDir + "/" + missing + ".json", Hash: missing}); err != nil {
		t.Fatal(err)
	}
	tornHash := strings.Repeat("b", 64)
	if err := bx.journalAppend(journalRecord{Op: opIntent, Path: entriesDir + "/" + tornHash + ".json", Hash: tornHash}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bx.path(entriesDir+"/"+tornHash+".json"), []byte(`{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}

	// The diagnosis must survive a reopen — it lives in the journal, not in
	// process memory.
	st.refreshStatus(m)
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, cur := range map[string]*Store{"in-process": st, "reopened": reopened} {
		r := cur.Status()
		if r.Journal != JournalClean {
			t.Fatalf("%s: root journal = %s; shard damage must not implicate the root", name, r.Journal)
		}
		if !r.Dirty() || len(r.Shards) != 1 || r.Shards[0].Shard != shard {
			t.Fatalf("%s: diagnosis = %+v, want exactly shard %s dirty", name, r, shard)
		}
		ss := r.Shards[0]
		if ss.Journal != JournalInProgress || ss.PendingIntents != 2 || ss.PendingMissing != 1 || ss.PendingTorn != 1 {
			t.Fatalf("%s: shard diagnosis = %+v, want in-progress with 1 missing + 1 torn", name, ss)
		}
		if !strings.Contains(r.String(), shard) {
			t.Fatalf("%s: String() = %q, want the sick shard named", name, r.String())
		}
	}
}
