// Replication tests: the replicas/r0../ layout and its byte-identity
// guarantee, single-copy stores staying byte-identical to the
// pre-replication format, read failover at open and at load time, and the
// chaos acceptance — a store whose primary reads fail at any rate still
// serves the identical benchmark from its replicas.

package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/fault"
)

// mustSaveReplicated saves the benchmark into dir with n replicas.
func mustSaveReplicated(t *testing.T, dir string, b *bench.Benchmark, n int) (*Store, *Manifest) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetReplicas(n); err != nil {
		t.Fatal(err)
	}
	m, err := st.Save(b, BuildInfo{Seed: testCfg.Seed, Fingerprint: Fingerprint(bench.DefaultOptions())})
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// primaryArtifact returns one primary-copy artifact path of the given kind
// in a replicated store, with its counterpart paths in the other replicas.
func primaryArtifact(t *testing.T, dir, sub string) (primary string, others []string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, replicasDir, "r0", shardsDir, "*", sub, "*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no replicated artifacts under %s for %s: %v", dir, sub, err)
	}
	primary = matches[0]
	rel, err := filepath.Rel(filepath.Join(dir, replicasDir, "r0"), primary)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; ; r++ {
		p := filepath.Join(dir, replicasDir, replicaName(r), rel)
		if _, err := os.Stat(p); err != nil {
			break
		}
		others = append(others, p)
	}
	return primary, others
}

func TestReplicatedSaveLayoutAndByteIdentity(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSaveReplicated(t, dir, b, 2)

	if m.ReplicaCount != 2 {
		t.Fatalf("manifest replica count = %d, want 2", m.ReplicaCount)
	}
	// The single-copy shards/ directory must not exist alongside replicas/.
	if _, err := os.Stat(filepath.Join(dir, shardsDir)); !os.IsNotExist(err) {
		t.Fatalf("replicated store grew a root shards/ directory: %v", err)
	}
	// Byte-identical by construction: the full shard tree of every replica
	// matches the primary file for file, journals included.
	r0 := treeBytes(t, filepath.Join(dir, replicasDir, "r0"))
	r1 := treeBytes(t, filepath.Join(dir, replicasDir, "r1"))
	if len(r0) == 0 {
		t.Fatal("empty primary replica tree")
	}
	sameTree(t, r0, r1)

	// Verify walks every copy: root manifest + journal once,
	// then per replica each shard's manifest + journal, every entry, and
	// each shard's database copies.
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean replicated store reported corrupt: %+v", rep.Corrupt)
	}
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
	if want := 2 + 2*(2*len(m.Shards)+len(m.Entries)+dbCopies); rep.Checked != want {
		t.Fatalf("checked %d artifacts, want %d", rep.Checked, want)
	}

	// Reopening detects the replicated layout from the manifest alone.
	st2, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Replicas() != 2 {
		t.Fatalf("reopened store replicas = %d, want 2", st2.Replicas())
	}
	if fo := st2.FailedOver(); len(fo) != 0 {
		t.Fatalf("clean store failed over: %v", fo)
	}
	loaded, _, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if bench.Digest(loaded) != bench.Digest(b) {
		t.Fatal("replicated load diverged from the saved benchmark")
	}
}

func TestSingleCopyLayoutUnchangedByReplication(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	_, m := mustSave(t, dir, b)
	if m.ReplicaCount != 0 {
		t.Fatalf("single-copy manifest records replica count %d", m.ReplicaCount)
	}
	if _, err := os.Stat(filepath.Join(dir, replicasDir)); !os.IsNotExist(err) {
		t.Fatalf("single-copy store grew a replicas/ directory: %v", err)
	}
	// The serialized artifacts carry no trace of replication — a store
	// written today is byte-compatible with a pre-replication reader.
	for _, name := range []string{manifestName, journalName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("replica")) {
			t.Fatalf("single-copy %s mentions replicas:\n%s", name, data)
		}
	}
	st, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicas() != 1 {
		t.Fatalf("single-copy store replicas = %d, want 1", st.Replicas())
	}
	if h := st.ReplicaHealth(); h != nil {
		t.Fatalf("single-copy store reports replica health: %+v", h)
	}
}

func TestSetReplicasValidationAndPinning(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0, maxReplicas + 1} {
		if err := st.SetReplicas(n); err == nil {
			t.Errorf("SetReplicas(%d) accepted", n)
		}
	}
	if err := st.SetReplicas(3); err != nil || st.Replicas() != 3 {
		t.Fatalf("SetReplicas(3) on a fresh store: %v, replicas %d", err, st.Replicas())
	}

	// An existing layout wins silently: once a store saved single-copy,
	// SetReplicas cannot re-replicate it in place.
	_, b := testBench(t)
	dir := t.TempDir()
	mustSave(t, dir, b)
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	if st2.Replicas() != 1 {
		t.Fatalf("SetReplicas re-replicated an existing single-copy store: %d", st2.Replicas())
	}
}

func TestOpenReplicatedFailsOverBadPrimaryManifest(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	_, m := mustSaveReplicated(t, dir, b, 2)

	shard := m.Shards[0].Name
	flipByte(t, filepath.Join(dir, replicasDir, "r0", shardsDir, shard, manifestName))

	st, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	fo := st.FailedOver()
	if len(fo) != 1 || fo[0] != shard {
		t.Fatalf("failed over %v, want [%s]", fo, shard)
	}
	fails := st.Failovers()
	if len(fails) != 1 || fails[0].Replica != 1 || fails[0].Reason == "" {
		t.Fatalf("failovers = %+v", fails)
	}
	health := st.ReplicaHealth()
	if len(health) != 2 {
		t.Fatalf("replica health rows = %d, want 2", len(health))
	}
	if health[0].Healthy || len(health[0].BadShards) != 1 || health[0].BadShards[0] != shard {
		t.Fatalf("r0 health = %+v, want unhealthy with shard %s", health[0], shard)
	}
	if !health[1].Healthy {
		t.Fatalf("r1 health = %+v, want healthy", health[1])
	}

	// The degraded store serves the identical benchmark.
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatalf("load with failed-over shard: %v", err)
	}
	if bench.Digest(loaded) != bench.Digest(b) {
		t.Fatal("failed-over load diverged from the saved benchmark")
	}

	// Scrub heals the primary from the replica; reads route home again and
	// every replica verifies with zero findings.
	srep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if srep.Lossy() || srep.Escalated {
		t.Fatalf("scrub of one bad copy escalated or lost data: %+v", srep)
	}
	if len(srep.Repaired) == 0 {
		t.Fatalf("scrub repaired nothing: %+v", srep)
	}
	if fo := st.FailedOver(); len(fo) != 0 {
		t.Fatalf("still failed over after scrub: %v", fo)
	}
	if rep, err := st.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify after scrub: %+v, %v", rep, err)
	}
}

func TestLoadFailsOverCorruptPrimaryEntry(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	mustSaveReplicated(t, dir, b, 2)

	// A corrupt entry artifact slips past the open-time manifest probe; the
	// failover happens at load time, when the shard read actually fails.
	primary, _ := primaryArtifact(t, dir, entriesDir)
	flipByte(t, primary)

	st, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fo := st.FailedOver(); len(fo) != 0 {
		t.Fatalf("manifest probe flagged an entry-level corruption: %v", fo)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatalf("load with corrupt primary entry: %v", err)
	}
	if bench.Digest(loaded) != bench.Digest(b) {
		t.Fatal("failed-over load diverged from the saved benchmark")
	}
	fo := st.FailedOver()
	if len(fo) != 1 {
		t.Fatalf("load did not record the failover: %v", fo)
	}
	if fails := st.Failovers(); len(fails) != 1 || fails[0].Reason == "" {
		t.Fatalf("failovers = %+v", fails)
	}
}

// TestReplicaChaosReadFailover is the acceptance chaos: with the
// store.replica.read site failing primary reads at 5%, 30% and 100%, open
// and load must return the byte-identical benchmark an unfaulted run
// returns — the replicas absorb every primary failure — and a scrub
// afterwards finds nothing to heal (injected read errors are not disk
// damage).
func TestReplicaChaosReadFailover(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	mustSaveReplicated(t, dir, b, 2)
	want := bench.Digest(b)

	cases := []struct {
		name string
		rate float64
		seed int64
	}{
		{"5pct", 0.05, 11},
		{"30pct", 0.3, 7},
		{"certain", 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.NewPlan(tc.seed).Add(
				fault.Rule{Site: fault.SiteReplicaRead, Kind: fault.KindError, Rate: tc.rate})
			restore := fault.Activate(plan)
			st, err := OpenReplicated(dir)
			if err != nil {
				restore()
				t.Fatalf("open under primary read faults: %v", err)
			}
			loaded, m, err := st.Load()
			restore()
			if err != nil {
				t.Fatalf("load under primary read faults: %v", err)
			}
			if bench.Digest(loaded) != want {
				t.Fatal("chaos load diverged from the unfaulted benchmark")
			}
			if tc.rate == 1 {
				// Every primary probe failed, so every shard must be serving
				// from the replica.
				if fo := st.FailedOver(); len(fo) != len(m.Shards) {
					t.Fatalf("failed over %d shards, want all %d", len(fo), len(m.Shards))
				}
			}
		})
	}

	// No plan active: the disk was never damaged, so a scrub is a no-op and
	// every replica still verifies clean.
	st, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !srep.Clean() {
		t.Fatalf("scrub after read-only chaos found work: %+v", srep)
	}
	if rep, err := st.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify after chaos: %+v, %v", rep, err)
	}
}

// TestChaosReplicaSaveSite mirrors TestChaosShardSitesRecover for the
// replicated write path: errors injected into secondary-copy writes fail
// the Save as wrapped injections, Repair restores a verifying store, and a
// clean re-save round-trips the benchmark.
func TestChaosReplicaSaveSite(t *testing.T) {
	_, b := testBench(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	restore := fault.Activate(fault.NewPlan(1).Add(
		fault.Rule{Site: fault.SiteReplicaSave, Kind: fault.KindError, Rate: 1}))
	_, err = st.Save(b, BuildInfo{})
	restore()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Save under %s faults: err = %v, want injected", fault.SiteReplicaSave, err)
	}

	restore = fault.Activate(fault.NewPlan(29).Add(
		fault.Rule{Site: fault.SiteReplicaSave, Kind: fault.KindError, Rate: 0.1}))
	injected := 0
	for attempt := 0; attempt < 8; attempt++ {
		if _, err := st.Save(b, BuildInfo{}); err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				restore()
				t.Fatalf("attempt %d: organic error under replica save faults: %v", attempt, err)
			}
			injected++
		}
	}
	restore()
	t.Logf("%d of 8 replicated saves injected", injected)
	if _, err := st.Repair(); err != nil {
		t.Fatalf("repair after chaos: %v", err)
	}
	if rep, err := st.Verify(); err != nil || !rep.OK() {
		t.Fatalf("verify after chaos+repair: %+v, %v", rep, err)
	}
	if _, err := st.Save(b, BuildInfo{}); err != nil {
		t.Fatalf("clean re-save after chaos: %v", err)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if bench.Digest(loaded) != bench.Digest(b) {
		t.Fatal("benchmark diverged after replica save chaos")
	}
}

// TestRepairHealsFromSecondaryBeforeSalvage pins the ordering guarantee of
// Repair on a replicated store: a primary-side corruption with a healthy
// secondary heals losslessly (cross-replica copy), never via the lossy
// single-copy salvage.
func TestRepairHealsFromSecondaryBeforeSalvage(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSaveReplicated(t, dir, b, 2)

	primary, _ := primaryArtifact(t, dir, entriesDir)
	flipByte(t, primary)

	rep, err := st.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lossy() {
		t.Fatalf("repair went lossy with a healthy secondary on disk: %+v", rep)
	}
	if frep, err := st.Verify(); err != nil || !frep.OK() {
		t.Fatalf("verify after repair: %+v, %v", frep, err)
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if bench.Digest(loaded) != bench.Digest(b) {
		t.Fatal("benchmark diverged after cross-replica repair")
	}
}
