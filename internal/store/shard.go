// Sharding: the store is hash-partitioned into shards/00..ff/, each a
// self-contained box (own journal, manifest, entries, dbs). An
// entry lives in the shard named by the first byte of its content hash
// modulo the shard count, so placement is stable (a re-save routes every
// entry to the same shard), uniform (the first hash byte is uniform), and
// nested (halving the shard count merges pairs of shards predictably).
// Database payloads are duplicated into every shard that references them:
// a shard can be loaded, verified and repaired with no reads outside its
// own directory, which is what makes the shard the blast radius of any
// single corruption.
//
// The root MANIFEST.json is a deterministic merge of the shard manifests:
// shards in name order, entries re-sorted by (ID, Hash), databases the
// sorted global union. Every input of the merge is itself deterministic,
// so the root manifest is byte-identical regardless of how many workers
// wrote the shards or in what order they finished.

package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nvbench/internal/bench"
	"nvbench/internal/dataset"
)

const shardsDir = "shards"

// DefaultShardCount is the shard count of a newly created store; existing
// stores keep the count recorded in their root manifest.
const DefaultShardCount = 16

// maxShardCount is the widest layout: one shard per possible first hash
// byte.
const maxShardCount = 256

// validShardCount reports whether n is a usable shard count: a power of
// two in [1, 256], so the first-byte route is an exact modulo.
func validShardCount(n int) bool {
	return n > 0 && n <= maxShardCount && n&(n-1) == 0
}

// shardName renders a shard index as its directory name ("00".."ff").
func shardName(i int) string {
	return fmt.Sprintf("%02x", i)
}

// shardIndex routes a content hash to a shard: the value of the first hex
// byte modulo the shard count. A malformed hash routes to shard 0 — the
// route must be total because corrupt references still need a shard to be
// reported against.
func shardIndex(hash string, count int) int {
	if !validShardCount(count) {
		return 0
	}
	if len(hash) < 2 {
		return 0
	}
	b, ok := hexByte(hash[0], hash[1])
	if !ok {
		return 0
	}
	return b % count
}

// hexByte decodes two hex digits into a byte value.
func hexByte(hi, lo byte) (int, bool) {
	h, ok1 := hexVal(hi)
	l, ok2 := hexVal(lo)
	return h<<4 | l, ok1 && ok2
}

func hexVal(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	}
	return 0, false
}

// ShardManifest indexes one shard: the shard's slice of the benchmark plus
// enough layout context (its own name, the global shard count) to detect a
// shard directory transplanted from a differently-sharded store.
type ShardManifest struct {
	FormatVersion int        `json:"format_version"`
	Shard         string     `json:"shard"`
	ShardCount    int        `json:"shard_count"`
	Build         BuildInfo  `json:"build"`
	Databases     []string   `json:"databases"`
	Entries       []EntryRef `json:"entries"`
}

// parseShardManifest is the one validity rule for a shard manifest: a
// strict decode, the current format, and shard name of count. Its error
// doubles as a Verify finding.
func parseShardManifest(data []byte, name string, count int) (*ShardManifest, error) {
	var sm ShardManifest
	if err := decodeStrict(data, &sm); err != nil {
		return nil, fmt.Errorf("undecodable: %w", err)
	}
	if sm.FormatVersion != FormatVersion || sm.Shard != name || sm.ShardCount != count {
		return nil, fmt.Errorf("describes shard %s of %d (format %d), found in shard %s of %d",
			sm.Shard, sm.ShardCount, sm.FormatVersion, name, count)
	}
	return &sm, nil
}

// shardPart is one shard's contribution to the root merge.
type shardPart struct {
	name string
	m    *ShardManifest
	hash string // content hash of the shard manifest's canonical bytes
}

// mergeManifest assembles the root manifest from shard manifests. It is a
// pure function of its inputs, and every input is deterministic: parts
// arrive in shard-name order, entries re-sort by (ID, Hash), databases are
// the deduplicated sorted union. Save, Verify and Repair all merge through
// this one function, which is the determinism argument in one place — the
// root manifest bytes cannot depend on worker count or completion order
// because nothing order-dependent reaches this function.
func mergeManifest(info BuildInfo, count, replicas int, parts []shardPart, rejections map[string]int, quarantine []bench.Quarantined) *Manifest {
	if replicas <= 1 {
		replicas = 0 // omitted field: single-copy manifests stay byte-identical
	}
	m := &Manifest{
		FormatVersion: FormatVersion,
		Build:         info,
		ShardCount:    count,
		ReplicaCount:  replicas,
		Entries:       make([]EntryRef, 0),
		Rejections:    rejections,
		Quarantine:    quarantine,
	}
	dbs := map[string]bool{}
	for _, p := range parts {
		m.Shards = append(m.Shards, ShardRef{Name: p.name, Hash: p.hash})
		m.Entries = append(m.Entries, p.m.Entries...)
		for _, h := range p.m.Databases {
			dbs[h] = true
		}
	}
	sort.Slice(m.Entries, func(i, j int) bool {
		if m.Entries[i].ID != m.Entries[j].ID {
			return m.Entries[i].ID < m.Entries[j].ID
		}
		return m.Entries[i].Hash < m.Entries[j].Hash
	})
	m.Databases = sortedKeys(dbs)
	return m
}

// rootBox is the store root as a box: the root journal, the merged
// manifest and its sum. Its writes are the merge step of a save, hence
// the store.shard.merge site.
func (s *Store) rootBox() box {
	return box{root: s.dir, inject: injectShardMerge}
}

// shardBoxName addresses the primary copy of one shard directory by name.
func (s *Store) shardBoxName(name string) box {
	return s.replicaShardBox(0, name)
}

// shardBox addresses the primary copy of one shard directory by index.
func (s *Store) shardBox(i int) box {
	return s.shardBoxName(shardName(i))
}

// shardDirsIn lists the shard directories under one root-relative shard
// tree, in name order.
func (s *Store) shardDirsIn(rel string) ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, filepath.FromSlash(rel)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	return names, nil
}

// shardUniverse is every shard that exists on disk (in any replica) or is
// referenced by the root manifest, in name order — the set Status, Verify
// and Repair walk.
func (s *Store) shardUniverse(refs map[string]string) ([]string, error) {
	seen := map[string]bool{}
	for name := range refs {
		seen[name] = true
	}
	for r := 0; r < s.replicas; r++ {
		disk, err := s.shardDirsIn(s.replicaShardsRel(r))
		if err != nil {
			return nil, err
		}
		for _, name := range disk {
			seen[name] = true
		}
	}
	return sortedKeys(seen), nil
}

// shardBlob is one precomputed artifact: its content address and bytes.
type shardBlob struct {
	hash string
	data []byte
}

// shardPlan is everything one shard save will write, computed up front so
// the parallel writers do no encoding (and therefore no ordering-sensitive
// work) of their own.
type shardPlan struct {
	name     string
	dbs      []shardBlob // sorted by hash
	entries  []shardBlob // in global entry order
	manifest shardBlob   // canonical ShardManifest bytes
}

// planShards encodes the whole benchmark and routes it: per-shard database
// copies, entry records, and shard manifests, plus the shardParts the root
// merge consumes. Pure planning — no disk I/O — so two plans of the same
// build are identical down to the byte.
func planShards(b *bench.Benchmark, info BuildInfo, count int) ([]shardPlan, []shardPart, error) {
	type bucket struct {
		dbs     map[string]bool
		entries []shardBlob
		refs    []EntryRef
	}
	dbHash := map[*dataset.Database]string{}
	dbData := map[string][]byte{}
	buckets := make([]*bucket, count)
	for _, e := range b.Entries {
		if _, ok := dbHash[e.DB]; !ok {
			data, err := encodeDatabase(e.DB)
			if err != nil {
				return nil, nil, err
			}
			h := hashBytes(data)
			dbHash[e.DB] = h
			dbData[h] = data // two pointers, same content: deduplicated by address
		}
		data, err := encodeEntry(e, dbHash[e.DB])
		if err != nil {
			return nil, nil, err
		}
		h := hashBytes(data)
		idx := shardIndex(h, count)
		bk := buckets[idx]
		if bk == nil {
			bk = &bucket{dbs: map[string]bool{}}
			buckets[idx] = bk
		}
		bk.entries = append(bk.entries, shardBlob{hash: h, data: data})
		bk.refs = append(bk.refs, EntryRef{ID: e.ID, PairID: e.PairID, Hash: h, DB: dbHash[e.DB]})
		bk.dbs[dbHash[e.DB]] = true
	}
	var plans []shardPlan
	var parts []shardPart
	for idx := 0; idx < count; idx++ {
		bk := buckets[idx]
		if bk == nil {
			continue // empty shards get no directory and no manifest
		}
		p := shardPlan{name: shardName(idx), entries: bk.entries}
		dbs := sortedKeys(bk.dbs)
		for _, h := range dbs {
			p.dbs = append(p.dbs, shardBlob{hash: h, data: dbData[h]})
		}
		sm := &ShardManifest{
			FormatVersion: FormatVersion,
			Shard:         p.name,
			ShardCount:    count,
			Build:         info,
			Databases:     dbs,
			Entries:       bk.refs,
		}
		smdata, err := canonicalJSON(sm)
		if err != nil {
			return nil, nil, err
		}
		p.manifest = shardBlob{hash: hashBytes(smdata), data: smdata}
		plans = append(plans, p)
		parts = append(parts, shardPart{name: p.name, m: sm, hash: p.manifest.hash})
	}
	return plans, parts, nil
}

// saveShard writes one shard, replica by replica (primary first), each
// copy through its own journal: begin (rotating that copy's journal),
// intents+bytes for every database copy and entry record, the shard
// manifest and its sum, then commit. This is exactly the PR-4 save
// protocol scoped to one directory — which is why a crash anywhere in here
// dirties exactly this shard — and every replica runs it over the same
// precomputed plan, which is why replicas are byte-identical by
// construction, journals included.
func (s *Store) saveShard(ctx context.Context, p shardPlan, info BuildInfo, count int) error {
	done := s.shardOp(ctx, "shard_save", p.name)
	var err error
	for r := 0; r < s.replicas && err == nil; r++ {
		err = saveShardCopy(s.replicaShardBox(r, p.name), p, info, count, s.manifestReplicas())
	}
	done(err)
	return err
}

// saveShardCopy runs the journaled shard-save protocol against one
// replica's box.
func saveShardCopy(bx box, p shardPlan, info BuildInfo, count, replicas int) error {
	if err := bx.journalBegin(journalRecord{Build: &info, Shards: count, Replicas: replicas}); err != nil {
		return err
	}
	for _, a := range p.dbs {
		if err := bx.writeIntended(dbsDir+"/"+a.hash+".json", a.hash, a.data); err != nil {
			return err
		}
	}
	for _, a := range p.entries {
		if err := bx.writeIntended(entriesDir+"/"+a.hash+".json", a.hash, a.data); err != nil {
			return err
		}
	}
	return bx.commitManifest(p.manifest.data)
}

// saveShards fans the shard saves out across a bounded worker pool. Every
// byte was precomputed by planShards and every shard writes only inside
// its own directory, so the on-disk result is identical for any worker
// count; when several shards fail, the error of the lowest-named shard is
// returned so the failure surface is deterministic too.
func (s *Store) saveShards(ctx context.Context, plans []shardPlan, info BuildInfo, count int) error {
	workers := s.saveWorkers
	if workers > len(plans) {
		workers = len(plans)
	}
	if workers <= 1 {
		for _, p := range plans {
			if err := s.saveShard(ctx, p, info, count); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(plans))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = s.saveShard(ctx, plans[i], info, count)
			}
		}()
	}
	for i := range plans {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// trimSum extracts the recorded hex digest from a *.sha256 artifact.
func trimSum(sum []byte) string {
	return strings.TrimSpace(string(sum))
}
