// Manifest types: the root index artifact that names every shard manifest
// (and, merged, every entry) by content hash, plus the fsck (Verify) walk
// that re-hashes all of them shard by shard.

package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"nvbench/internal/bench"
)

// BuildInfo records how the stored benchmark was built — enough for a
// reader to reproduce it with the same code.
type BuildInfo struct {
	// Seed is the corpus generation seed (0 when the corpus came from
	// external data, e.g. a CSV import).
	Seed int64 `json:"seed,omitempty"`
	// Fingerprint is the synthesizer+editor configuration hash (see
	// Fingerprint).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Fingerprint hashes the outcome-relevant configuration of a build: the
// synthesizer knobs (bin count, candidate bound, aggregate menu, whether
// the DeepEye filter is on), the NL editor knobs (variant count, smoothing,
// seed) and the per-pair truncation bound. Worker count, retry budget and
// backoff are deliberately excluded — they change how a build runs, not
// what it produces. It covers no code version: two binaries with the same
// configuration share a fingerprint even when their output differs.
func Fingerprint(opts bench.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "store-v%d", FormatVersion)
	if opts.Synth != nil {
		fmt.Fprintf(h, "|synth:bins=%d,max=%d,filter=%t,aggs=", opts.Synth.NumBins, opts.Synth.MaxCandidates, opts.Synth.Filter != nil)
		for _, a := range opts.Synth.Aggregates {
			fmt.Fprintf(h, "%s ", a)
		}
	}
	if opts.Edit != nil {
		fmt.Fprintf(h, "|edit:n=%d,smooth=%t,seed=%d", opts.Edit.NumVariants, opts.Edit.Smooth, opts.Edit.Seed)
	}
	fmt.Fprintf(h, "|maxvis=%d", opts.MaxVisPerPair)
	return hex.EncodeToString(h.Sum(nil))
}

// EntryRef is one manifest line: where an entry lives and what it must
// hash to. The owning shard is not stored — it is computable from Hash and
// the shard count, which is what keeps placement an invariant rather than
// a field that could disagree with it.
type EntryRef struct {
	ID     int    `json:"id"`
	PairID int    `json:"pair_id"`
	Hash   string `json:"hash"`
	DB     string `json:"db"`
}

// ShardRef is one shard in the root manifest: its name and the content
// hash its shard manifest must have. A shard whose manifest drifts from
// this hash is sick by definition.
type ShardRef struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
}

// Manifest indexes a saved benchmark. In the sharded layout (format 2) it
// is the deterministic merge of the shard manifests: ShardCount and Shards
// describe the partition, Entries/Databases are the merged global view.
type Manifest struct {
	FormatVersion int       `json:"format_version"`
	Build         BuildInfo `json:"build"`
	ShardCount    int       `json:"shard_count,omitempty"`
	// ReplicaCount is the number of byte-identical shard-tree copies under
	// replicas/r0..r{N-1}/; 0 (omitted) means the single-copy shards/
	// layout, so pre-replication manifests are byte-identical to new
	// single-copy ones.
	ReplicaCount int                 `json:"replica_count,omitempty"`
	Shards       []ShardRef          `json:"shards,omitempty"`
	Databases    []string            `json:"databases"`
	Entries      []EntryRef          `json:"entries"`
	Rejections   map[string]int      `json:"rejections,omitempty"`
	Quarantine   []bench.Quarantined `json:"quarantine,omitempty"`
}

// EntryHashes returns the per-entry content hashes in entry-ID order —
// the values the server hands out as ETags.
func (m *Manifest) EntryHashes() []string {
	out := make([]string, len(m.Entries))
	for i, ref := range m.Entries {
		out[i] = ref.Hash
	}
	return out
}

// EntryShards returns each entry's owning shard name, positionally aligned
// with Entries (and so with EntryHashes and a served benchmark's entry
// order) — the routing table the server uses to attribute a query's rows
// to shards. A manifest without a sharded layout yields "" per entry.
func (m *Manifest) EntryShards() []string {
	out := make([]string, len(m.Entries))
	if m.ShardCount <= 0 {
		return out
	}
	for i, ref := range m.Entries {
		out[i] = shardName(shardIndex(ref.Hash, m.ShardCount))
	}
	return out
}

// shardRefs maps each shard the manifest lists to the content hash its
// shard manifest must have; a nil manifest lists none.
func (m *Manifest) shardRefs() map[string]string {
	if m == nil {
		return nil
	}
	refs := make(map[string]string, len(m.Shards))
	for _, sr := range m.Shards {
		refs[sr.Name] = sr.Hash
	}
	return refs
}

// Corruption is one artifact Verify could not validate. Paths are
// root-relative, so a shard artifact reads "shards/03/entries/<h>.json" —
// the prefix is what attributes damage to a shard.
type Corruption struct {
	Path   string `json:"path"`
	Detail string `json:"detail"`
}

// FsckReport summarizes a Verify walk.
type FsckReport struct {
	Checked int          `json:"checked"`
	Corrupt []Corruption `json:"corrupt,omitempty"`
}

// OK reports whether the walk found no corruption.
func (r *FsckReport) OK() bool { return len(r.Corrupt) == 0 }

// shardOfPath attributes a root-relative corruption path to a shard name:
// "shards/03/..." and "replicas/r1/shards/03/..." both attribute to "03".
// deeper reports whether the path names something inside the shard
// directory rather than the directory itself. Root-level paths (the merged
// manifest, the root journal) attribute to no shard.
func shardOfPath(p string) (name string, deeper, ok bool) {
	if rest, found := strings.CutPrefix(p, replicasDir+"/"); found {
		i := strings.IndexByte(rest, '/')
		if i <= 0 {
			return "", false, false
		}
		p = rest[i+1:]
	}
	rest, found := strings.CutPrefix(p, shardsDir+"/")
	if !found {
		return "", false, false
	}
	if i := strings.IndexByte(rest, '/'); i > 0 {
		return rest[:i], true, true
	}
	if rest != "" {
		return rest, false, true
	}
	return "", false, false
}

// SickShards names the shards with at least one corrupt artifact (in any
// replica), in name order. Root-level corruption (the merged manifest, the
// root journal) attributes to no shard.
func (r *FsckReport) SickShards() []string {
	seen := map[string]bool{}
	for _, c := range r.Corrupt {
		if name, _, ok := shardOfPath(c.Path); ok {
			seen[name] = true
		}
	}
	return sortedKeys(seen)
}

// Verify is fsck for the store: it re-hashes the root manifest against its
// recorded sum, every shard manifest against the root's ShardRef hash,
// every entry and database artifact against its content address
// (manifest-referenced or not — an orphan with a lying filename is
// corruption too), and checks that every journal — root and per shard —
// records a committed save. When all shard manifests are intact it
// additionally recomputes the root merge and byte-compares it, so a root
// manifest that is internally consistent but disagrees with its shards is
// caught. It
// returns a report rather than failing on the first hit, so one flipped
// byte and fifty flipped bytes both come back as a complete picture;
// sick shards are also recorded into Status. The error return is reserved
// for stores that cannot be walked at all (no root manifest).
func (s *Store) Verify() (*FsckReport, error) {
	rep := &FsckReport{}
	mdata, err := s.rootBox().readArtifact(manifestName)
	if err != nil {
		return nil, err
	}
	rep.Checked++
	sum, err := s.rootBox().readArtifact(manifestSumName)
	switch {
	case err != nil:
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: manifestSumName, Detail: err.Error()})
	case trimSum(sum) != hashBytes(mdata):
		rep.Corrupt = append(rep.Corrupt, Corruption{
			Path:   manifestName,
			Detail: fmt.Sprintf("hash %s does not match recorded %s", hashBytes(mdata), trimSum(sum)),
		})
	}
	m, err := parseManifest(mdata)
	if err != nil {
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: manifestName, Detail: err.Error()})
		s.finishVerify(rep)
		return rep, nil
	}
	refs := m.shardRefs()
	names, err := s.shardUniverse(refs)
	if err != nil {
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: shardsDir, Detail: err.Error()})
		s.finishVerify(rep)
		return rep, nil
	}
	// Which entries the root manifest expects of each shard — the per-shard
	// walk checks the shard manifest says the same.
	rootRefs := map[string][]EntryRef{}
	for _, ref := range m.Entries {
		name := shardName(shardIndex(ref.Hash, m.ShardCount))
		rootRefs[name] = append(rootRefs[name], ref)
	}
	var parts []shardPart
	shardsIntact := true
	for _, name := range names {
		wantHash, listed := refs[name]
		sm, smHash := s.verifyShard(rep, s.replicaShardBox(0, name), name, wantHash, listed, m.ShardCount, rootRefs[name])
		// Non-primary replicas must hold the same byte-identical shard: the
		// same walk runs over each copy, and any divergence is a finding
		// attributed to that replica's path.
		for r := 1; r < s.replicas; r++ {
			s.verifyShard(rep, s.replicaShardBox(r, name), name, wantHash, listed, m.ShardCount, rootRefs[name])
		}
		if sm == nil {
			if listed {
				shardsIntact = false
			}
			continue
		}
		parts = append(parts, shardPart{name: name, m: sm, hash: smHash})
	}
	if shardsIntact {
		// Only manifests of listed shards participate in the merge; a
		// healthy unreferenced shard directory does not.
		merged := parts[:0:0]
		for _, p := range parts {
			if _, listed := refs[p.name]; listed {
				merged = append(merged, p)
			}
		}
		expect := mergeManifest(m.Build, m.ShardCount, m.ReplicaCount, merged, m.Rejections, m.Quarantine)
		edata, err := canonicalJSON(expect)
		if err == nil && !bytes.Equal(edata, mdata) {
			rep.Corrupt = append(rep.Corrupt, Corruption{
				Path:   manifestName,
				Detail: "does not match the deterministic merge of the shard manifests",
			})
		}
	}
	s.finishVerify(rep)
	return rep, nil
}

// finishVerify checks the root journal, sorts the findings, and records
// sick shards into the open report.
func (s *Store) finishVerify(rep *FsckReport) {
	rep.Checked++
	verifyJournal(rep, s.rootBox(), journalName)
	sort.Slice(rep.Corrupt, func(i, j int) bool { return rep.Corrupt[i].Path < rep.Corrupt[j].Path })
	counts := map[string]int{}
	for _, c := range rep.Corrupt {
		if name, deeper, ok := shardOfPath(c.Path); ok && deeper {
			counts[name]++
		}
	}
	for _, name := range sortedKeysAny(counts) {
		s.noteSick(name, fmt.Sprintf("%d corrupt artifacts (fsck)", counts[name]))
	}
}

// verifyJournal appends the standard journal findings for one box.
func verifyJournal(rep *FsckReport, bx box, path string) {
	switch j := bx.readJournal(); j.State {
	case JournalNone:
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(path), Detail: "missing journal (no save record)"})
	case JournalCorrupt:
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(path), Detail: "no intact begin record"})
	case JournalInProgress:
		rep.Corrupt = append(rep.Corrupt, Corruption{
			Path:   bx.key(path),
			Detail: fmt.Sprintf("incomplete save: %d intents without commit (run -repair)", len(j.Intents)),
		})
	case JournalClean:
		if j.BadLines > 0 || j.TornTail {
			rep.Corrupt = append(rep.Corrupt, Corruption{
				Path:   bx.key(path),
				Detail: fmt.Sprintf("%d unreadable records (torn tail: %t)", j.BadLines, j.TornTail),
			})
		}
	}
}

// verifyShard walks one copy of one shard: manifest linkage to the root,
// the shard's content-addressed artifacts and its journal. The box
// selects which replica's copy is walked (findings carry that replica's
// path). Returns the decoded shard manifest (nil when unusable) and its
// content hash, for the root-merge recomputation.
func (s *Store) verifyShard(rep *FsckReport, bx box, name, wantHash string, listed bool, count int, rootRefs []EntryRef) (*ShardManifest, string) {
	var sm *ShardManifest
	smHash := ""
	smdata, err := bx.readArtifact(manifestName)
	switch {
	case err != nil && listed:
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(manifestName), Detail: "missing shard manifest"})
	case err == nil:
		rep.Checked++
		smHash = hashBytes(smdata)
		sum, serr := bx.readArtifact(manifestSumName)
		switch {
		case serr != nil:
			rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(manifestSumName), Detail: serr.Error()})
		case trimSum(sum) != smHash:
			rep.Corrupt = append(rep.Corrupt, Corruption{
				Path:   bx.key(manifestName),
				Detail: fmt.Sprintf("hash %s does not match recorded %s", smHash, trimSum(sum)),
			})
		}
		if listed && smHash != wantHash {
			rep.Corrupt = append(rep.Corrupt, Corruption{
				Path:   bx.key(manifestName),
				Detail: fmt.Sprintf("hash %s does not match the root manifest's %s", smHash, wantHash),
			})
		}
		dec, perr := parseShardManifest(smdata, name, count)
		switch {
		case perr != nil:
			rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(manifestName), Detail: perr.Error()})
		case !listed || smHash == wantHash:
			sm = dec
		}
	}
	// The artifact sweep: everything the shard manifest (or, failing that,
	// the root manifest) references must be present and hash-true; present
	// artifacts must hash to their names referenced or not.
	refs := map[string]bool{}
	if sm != nil {
		for _, ref := range sm.Entries {
			refs[entriesDir+"/"+ref.Hash+".json"] = true
			if got := shardName(shardIndex(ref.Hash, count)); got != name {
				rep.Corrupt = append(rep.Corrupt, Corruption{
					Path:   bx.key(entriesDir + "/" + ref.Hash + ".json"),
					Detail: fmt.Sprintf("routed to shard %s but listed by shard %s", got, name),
				})
			}
		}
		for _, h := range sm.Databases {
			refs[dbsDir+"/"+h+".json"] = true
		}
	} else {
		for _, ref := range rootRefs {
			refs[entriesDir+"/"+ref.Hash+".json"] = true
			refs[dbsDir+"/"+ref.DB+".json"] = true
		}
	}
	if sm != nil && len(rootRefs) != len(sm.Entries) {
		rep.Corrupt = append(rep.Corrupt, Corruption{
			Path:   bx.key(manifestName),
			Detail: fmt.Sprintf("lists %d entries but the root manifest routes %d here", len(sm.Entries), len(rootRefs)),
		})
	}
	for _, dir := range []string{entriesDir, dbsDir} {
		names, err := bx.listJSON(dir)
		if err != nil {
			rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(dir), Detail: err.Error()})
			continue
		}
		for _, fname := range names {
			rel := dir + "/" + fname
			rep.Checked++
			data, err := bx.readArtifact(rel)
			if err != nil {
				rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(rel), Detail: err.Error()})
				continue
			}
			want := strings.TrimSuffix(fname, ".json")
			if got := hashBytes(data); got != want {
				detail := fmt.Sprintf("content hash %s does not match address", got)
				if !refs[rel] {
					detail += " (orphan)"
				}
				rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(rel), Detail: detail})
			}
			delete(refs, rel)
		}
	}
	for _, rel := range sortedKeys(refs) { // referenced but absent on disk
		rep.Corrupt = append(rep.Corrupt, Corruption{Path: bx.key(rel), Detail: "missing artifact"})
	}
	if listed {
		rep.Checked++
		verifyJournal(rep, bx, journalName)
	}
	return sm, smHash
}

// sortedKeysAny returns a map's keys in sorted order regardless of value
// type (sortedKeys filters by bool value; this one does not).
func sortedKeysAny[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteFsck renders a Verify report in the quarantine-report style: a
// summary line, then one line per corrupt artifact in path order.
func WriteFsck(w io.Writer, rep *FsckReport) {
	fmt.Fprintf(w, "fsck: %d of %d artifacts corrupt\n", len(rep.Corrupt), rep.Checked)
	if sick := rep.SickShards(); len(sick) > 0 {
		fmt.Fprintf(w, "  sick shards: %s\n", strings.Join(sick, ", "))
	}
	for _, c := range rep.Corrupt {
		fmt.Fprintf(w, "  %-20s %s\n", c.Path, c.Detail)
	}
}
