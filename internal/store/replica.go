// Per-shard replication: a store saved with Replicas: N keeps N
// byte-identical copies of every shard, laid out as
//
//	replicas/r0/shards/<nn>/   the primary copy (reads route here first)
//	replicas/r1/shards/<nn>/   first replica
//	...
//	replicas/r{N-1}/shards/<nn>/
//
// Root-level artifacts (the root manifest, its sum and the root journal)
// stay single-copy: each is a pure function of the shard manifests, so
// Repair re-derives them from any surviving replica.
//
// Replicas are byte-identical by construction: Save computes each shard's
// artifact plan once and writes the identical bytes to every replica,
// each copy through its own journal with the same temp→fsync→rename
// discipline, so any two healthy copies of a shard agree file-for-file,
// journals included. That is what makes repair quorum-free: every
// artifact is content-addressed, so "which copy is right" is a hash
// check, not a vote.
//
// A store saved single-copy (Replicas 1, the default) keeps the exact
// pre-replication layout — shards/<nn>/ at the root — and none of the
// machinery in this file changes its bytes.

package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nvbench/internal/bench"
	"nvbench/internal/dataset"
)

// replicasDir is the root directory replicated shard trees live under.
const replicasDir = "replicas"

// maxReplicas bounds the copies a Save fans out to; past a handful the
// write amplification buys nothing a backup would not.
const maxReplicas = 8

// validReplicaCount reports whether n is a usable replica count.
func validReplicaCount(n int) bool { return n >= 1 && n <= maxReplicas }

// replicaName names one replica directory: "r0" (the primary) .. "r7".
func replicaName(r int) string { return fmt.Sprintf("r%d", r) }

// Replicas returns how many copies of every shard the store keeps (what
// the next Save writes; 1 means the single-copy layout).
func (s *Store) Replicas() int { return s.replicas }

// SetReplicas configures how many copies of every shard the next Save
// writes; n must be in [1, 8]. On a store whose on-disk layout already
// chose a count, the existing count wins silently — re-replicating is a
// re-save into a fresh directory, not an in-place mutation.
func (s *Store) SetReplicas(n int) error {
	if !validReplicaCount(n) {
		return fmt.Errorf("store: replica count %d: must be in [1, %d]", n, maxReplicas)
	}
	if !s.replicasFixed {
		s.replicas = n
	}
	return nil
}

// manifestReplicas returns the replica count as the manifest and journal
// record it: 0 for a single-copy store, so those artifacts stay
// byte-identical to the pre-replication format.
func (s *Store) manifestReplicas() int {
	if s.replicas <= 1 {
		return 0
	}
	return s.replicas
}

// replicaShardsRel returns the store-relative slash path of replica r's
// shards directory ("shards" on a single-copy store, where replica 0 is
// the only copy).
func (s *Store) replicaShardsRel(r int) string {
	if s.replicas <= 1 {
		return shardsDir
	}
	return replicasDir + "/" + replicaName(r) + "/" + shardsDir
}

// replicaShardRel returns the store-relative slash path of one shard's
// directory in replica r.
func (s *Store) replicaShardRel(r int, name string) string {
	return s.replicaShardsRel(r) + "/" + name
}

// replicaShardBox addresses one shard copy. Fault routing: on a
// single-copy store the box behaves exactly as before replication
// (writes inject store.shard.save, reads inject store.load). On a
// replicated store the primary's reads inject store.replica.read — the
// site chaos tests corrupt to prove failover — and non-primary writes
// inject store.replica.save.
func (s *Store) replicaShardBox(r int, name string) box {
	bx := box{root: s.dir, rel: s.replicaShardRel(r, name), inject: injectShardSave}
	if s.replicas > 1 {
		if r == 0 {
			bx.rinject = injectReplicaRead
		} else {
			bx.inject = injectReplicaSave
		}
	}
	return bx
}

// scrubShardBox addresses one shard copy for the scrubber: both its
// examinations and its repair copies inject store.replica.scrub.
func (s *Store) scrubShardBox(r int, name string) box {
	return box{
		root:    s.dir,
		rel:     s.replicaShardRel(r, name),
		inject:  injectReplicaScrub,
		rinject: injectReplicaScrub,
	}
}

// Failover records one read re-route: a shard whose serving copy failed
// validation and which replica now serves it.
type Failover struct {
	Shard   string `json:"shard"`   // shard name ("00".."ff")
	Replica int    `json:"replica"` // replica index now serving reads
	Reason  string `json:"reason"`  // what was wrong with the copy it left
}

// ReplicaHealth is one replica's view in a replicated store: which shards
// (if any) of that copy failed their self-check.
type ReplicaHealth struct {
	Replica   int      `json:"replica"`
	Healthy   bool     `json:"healthy"`
	BadShards []string `json:"bad_shards,omitempty"`
}

// OpenReplicated opens a store and, when it is replicated, verifies every
// shard's primary copy and routes reads for any failing shard to the
// first replica whose manifest self-check passes. On a single-copy store
// it is exactly Open. The chosen routing is visible through FailedOver,
// Failovers and ReplicaHealth; a shard no replica can serve is recorded
// sick in Status.
func OpenReplicated(dir string) (*Store, error) {
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	s.selectServing()
	return s, nil
}

// selectServing probes every replica of every shard the root manifest
// references and picks, per shard, the first replica whose shard manifest
// self-checks against the root. Probes go through the replica boxes, so
// the primary's probe passes the store.replica.read fault site — which is
// how chaos tests force failover. No-op on single-copy stores.
func (s *Store) selectServing() {
	if s.replicas <= 1 {
		return
	}
	m, err := s.loadManifest()
	if err != nil {
		return
	}
	serving := map[string]int{}
	bad := make([][]string, s.replicas)
	var fails []Failover
	for _, sr := range m.Shards {
		chosen := -1
		reason := ""
		for r := 0; r < s.replicas; r++ {
			if err := s.replicaManifestCheck(r, sr.Name, sr.Hash); err != nil {
				bad[r] = append(bad[r], sr.Name)
				if r == 0 {
					reason = err.Error()
				}
				continue
			}
			if chosen < 0 {
				chosen = r
			}
		}
		if chosen < 0 {
			s.noteSick(sr.Name, "no replica passes its manifest self-check")
			continue
		}
		serving[sr.Name] = chosen
		if chosen > 0 {
			fails = append(fails, Failover{Shard: sr.Name, Replica: chosen, Reason: reason})
		}
	}
	s.mu.Lock()
	s.serving = serving
	s.health = bad
	s.failovers = append(s.failovers, fails...)
	s.mu.Unlock()
	for range fails {
		s.countFailover()
	}
	s.publishReplicaHealth()
}

// replicaManifestCheck reads one replica's copy of a shard manifest and
// its sum through the replica's box and verifies the manifest hashes to
// what the root manifest expects.
func (s *Store) replicaManifestCheck(r int, name, want string) error {
	bx := s.replicaShardBox(r, name)
	data, err := bx.readArtifact(manifestName)
	if err != nil {
		return err
	}
	if got := hashBytes(data); got != want {
		return fmt.Errorf("store: %s: hash %s does not match the root manifest's %s", bx.key(manifestName), got, want)
	}
	sum, err := bx.readArtifact(manifestSumName)
	if err != nil {
		return err
	}
	if trimSum(sum) != want {
		return fmt.Errorf("store: %s does not match its manifest", bx.key(manifestSumName))
	}
	return nil
}

// servingReplica returns the replica currently routing reads for a shard
// (the primary unless a failover moved it).
func (s *Store) servingReplica(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serving[name]
}

// failTo records a request-time failover: reads for the shard now route
// to replica r.
func (s *Store) failTo(name string, r int, reason string) {
	s.mu.Lock()
	if s.serving == nil {
		s.serving = map[string]int{}
	}
	s.serving[name] = r
	s.failovers = append(s.failovers, Failover{Shard: name, Replica: r, Reason: reason})
	s.mu.Unlock()
	s.countFailover()
	s.publishReplicaHealth()
}

// loadShardFailover loads one shard's manifest slice from its serving
// replica, failing over — and re-routing future reads — to the first
// other replica whose copy loads clean. The shared dbs map is safe across
// attempts: only hash-validated payloads are ever inserted.
func (s *Store) loadShardFailover(name string, refs []EntryRef, dbs map[string]*dataset.Database) ([]*bench.Entry, error) {
	start := s.servingReplica(name)
	es, err := loadOneShard(s.replicaShardBox(start, name), refs, dbs)
	if err == nil || s.replicas <= 1 {
		return es, err
	}
	for r := 0; r < s.replicas; r++ {
		if r == start {
			continue
		}
		es, rerr := loadOneShard(s.replicaShardBox(r, name), refs, dbs)
		if rerr == nil {
			s.failTo(name, r, err.Error())
			return es, nil
		}
	}
	return nil, err
}

// Failovers returns every read re-route recorded since Open, in the order
// they happened.
func (s *Store) Failovers() []Failover {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Failover, len(s.failovers))
	copy(out, s.failovers)
	return out
}

// FailedOver names the shards currently served by a non-primary replica,
// in name order.
func (s *Store) FailedOver() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, r := range s.serving {
		if r > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ReplicaHealth reports, per replica, which shards of that copy failed
// their last self-check (from OpenReplicated or the last Scrub). Nil on
// single-copy stores.
func (s *Store) ReplicaHealth() []ReplicaHealth {
	if s.replicas <= 1 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReplicaHealth, s.replicas)
	for r := 0; r < s.replicas; r++ {
		var bad []string
		if r < len(s.health) {
			bad = append(bad, s.health[r]...)
		}
		sort.Strings(bad)
		out[r] = ReplicaHealth{Replica: r, Healthy: len(bad) == 0, BadShards: bad}
	}
	return out
}

// publishReplicaHealth exports the nvbench_store_replica_healthy gauge
// for every replica: 1 when every shard copy passed its last self-check.
func (s *Store) publishReplicaHealth() {
	for _, rh := range s.ReplicaHealth() {
		v := int64(0)
		if rh.Healthy {
			v = 1
		}
		s.setReplicaHealthy(replicaName(rh.Replica), v)
	}
}

// replicaDirsOnDisk counts the replicas/r<k>/ directories actually
// present, for layout detection when both the root manifest and journal
// are gone.
func (s *Store) replicaDirsOnDisk() int {
	n := 0
	for r := 0; r < maxReplicas; r++ {
		if _, err := os.Stat(filepath.Join(s.dir, replicasDir, replicaName(r))); err != nil {
			break
		}
		n++
	}
	return n
}
