// Sharding tests: the determinism of parallel multi-shard saves and the
// blast-radius containment contract (damage in one shard never takes
// down the others).

package store

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestShardedSaveWorkerCountsByteIdentical is the determinism gate of the
// parallel save: the same benchmark saved on 1, 2 and 8 workers must
// produce byte-identical trees — journals, manifests, everything.
func TestShardedSaveWorkerCountsByteIdentical(t *testing.T) {
	_, b := testBench(t)
	trees := map[int]map[string][]byte{}
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.SetSaveWorkers(workers)
		if _, err := st.Save(b, BuildInfo{Seed: testCfg.Seed}); err != nil {
			t.Fatalf("save on %d workers: %v", workers, err)
		}
		trees[workers] = treeBytes(t, dir)
	}
	sameTree(t, trees[1], trees[2])
	sameTree(t, trees[1], trees[8])
}

// shardOf extracts the shard name from an artifact path returned by
// anyArtifact (…/shards/NN/<sub>/<hash>.json).
func shardOf(t *testing.T, dir, artifact string) string {
	t.Helper()
	rel, err := filepath.Rel(dir, artifact)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	if len(parts) < 3 || parts[0] != shardsDir {
		t.Fatalf("artifact %s is not inside a shard directory", artifact)
	}
	return parts[1]
}

// TestBlastRadiusContainment is the tentpole contract: corrupting one
// shard leaves every other shard loadable and servable, the diagnosis
// names exactly the damaged shard, and the repair stays scoped to it.
func TestBlastRadiusContainment(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	_, m := mustSave(t, dir, b)
	victim := anyArtifact(t, dir, entriesDir)
	sick := shardOf(t, dir, victim)
	flipByte(t, victim)

	// Open succeeds: a flipped artifact is damage to diagnose, not a
	// reason to refuse the whole store.
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open of a store with one damaged shard: %v", err)
	}

	// Verify names exactly the damaged shard.
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.SickShards(); len(got) != 1 || got[0] != sick {
		t.Fatalf("sick shards = %v, want exactly [%s]", got, sick)
	}
	if r := st.Status(); !r.Dirty() || len(r.Shards) != 1 || r.Shards[0].Shard != sick {
		t.Fatalf("status after fsck = %+v, want exactly shard %s flagged", st.Status(), sick)
	}

	// Strict Load refuses; LoadPartial serves every healthy shard and
	// reports the sick one with its entry count.
	if _, _, err := st.Load(); err == nil {
		t.Fatal("strict Load accepted a damaged shard")
	}
	lost := 0
	for _, ref := range m.Entries {
		if shardName(shardIndex(ref.Hash, m.ShardCount)) == sick {
			lost++
		}
	}
	pb, pm, fails, err := st.LoadPartial()
	if err != nil {
		t.Fatalf("partial load: %v", err)
	}
	if len(fails) != 1 || fails[0].Shard != sick || fails[0].EntriesLost != lost {
		t.Fatalf("failures = %+v, want shard %s losing %d entries", fails, sick, lost)
	}
	if len(pb.Entries) != len(m.Entries)-lost {
		t.Fatalf("partial load served %d entries, want %d", len(pb.Entries), len(m.Entries)-lost)
	}
	// The pruned manifest stays positionally aligned with the entries.
	if len(pm.Entries) != len(pb.Entries) {
		t.Fatalf("pruned manifest lists %d entries for %d loaded", len(pm.Entries), len(pb.Entries))
	}
	for i, ref := range pm.Entries {
		if pb.Entries[i].ID != ref.ID {
			t.Fatalf("pruned manifest misaligned at %d: entry %d vs ref %d", i, pb.Entries[i].ID, ref.ID)
		}
	}

	// Repair is shard-scoped: exactly the sick shard is healed, only the
	// flipped entry is lost, and the store then loads strictly.
	rrep := mustRepair(t, st)
	if len(rrep.Shards) != 1 || rrep.Shards[0].Shard != sick {
		t.Fatalf("repair touched %+v, want exactly shard %s", rrep.Shards, sick)
	}
	if rrep.EntriesLost != 1 {
		t.Fatalf("repair lost %d entries, want just the flipped one", rrep.EntriesLost)
	}
	healed, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(healed.Entries) != len(m.Entries)-1 {
		t.Fatalf("healed store serves %d entries, want %d", len(healed.Entries), len(m.Entries)-1)
	}
}
