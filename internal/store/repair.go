// Repair: fsck with healing. Where Verify only reports, Repair restores
// the store to a state Verify accepts, salvaging every artifact that still
// hashes to its address. It works shard by shard — each shard is healed
// from its own journal and artifacts alone, then the root manifest is
// re-merged from whatever shards survived — so damage in one shard can
// never widen the repair's blast radius into another. The invariants it
// relies on:
//
//   - Content addressing means artifacts self-validate: a file that hashes
//     to its name is exactly what some Save wrote, so entry records can be
//     trusted enough to rebuild a shard manifest from them.
//   - Committed artifacts are never rewritten with different bytes (an
//     identical re-save skips the write), so a crash can only damage the
//     save in flight — never silently corrupt history into valid-looking
//     artifacts.
//   - Each journal names its box's in-flight artifact set, so Repair can
//     tell that save's leftovers (rolled back to lost+found when the
//     manifest never landed, rolled forward when it did) from artifacts of
//     the committed state.
//   - The root manifest is a pure function of the shard manifests, so
//     re-merging is always safe: it cannot invent or lose anything the
//     shards do not witness.
//
// Nothing is deleted: everything unsalvageable moves to lost+found/,
// mirroring the store layout, where a human (or a later tool) can inspect
// it.

package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"nvbench/internal/bench"
	"nvbench/internal/fault"
)

const lostFoundDir = "lost+found"

// ShardRepair is one shard's slice of a repair: what survived in it and
// what it lost — the per-shard detail the server's degraded readiness
// reports.
type ShardRepair struct {
	Shard       string `json:"shard"`
	EntriesKept int    `json:"entries_kept"`
	EntriesLost int    `json:"entries_lost"`
}

// RepairReport says exactly what Repair did and what it could not save.
type RepairReport struct {
	TempsSwept      int           `json:"temps_swept"`              // stray temp files removed
	CorruptMoved    []string      `json:"corrupt_moved,omitempty"`  // hash- or decode-invalid artifacts moved to lost+found
	OrphansMoved    []string      `json:"orphans_moved,omitempty"`  // valid but unreferenced artifacts moved to lost+found
	CacheDropped    int           `json:"cache_dropped"`            // corrupt cache records moved to lost+found
	EntriesKept     int           `json:"entries_kept"`             // entries in the repaired root manifest
	EntriesLost     int           `json:"entries_lost"`             // intended entries that could not be salvaged
	DatabasesKept   int           `json:"databases_kept"`           // databases in the repaired root manifest
	DatabasesLost   int           `json:"databases_lost"`           // intended databases that could not be salvaged
	ManifestRebuilt bool          `json:"manifest_rebuilt"`         // root manifest was rewritten (rebuilt or re-merged)
	RolledForward   bool          `json:"rolled_forward,omitempty"` // an interrupted save had landed its manifest; committed
	RolledBack      bool          `json:"rolled_back,omitempty"`    // an interrupted save rolled back to the prior state
	JournalReset    bool          `json:"journal_reset,omitempty"`  // a journal was rewritten as clean
	Shards          []ShardRepair `json:"shards,omitempty"`         // shards that needed healing, in name order
}

// Lossy reports whether the repair lost benchmark content — the condition
// under which cmd/nvbench -repair exits non-zero.
func (r *RepairReport) Lossy() bool { return r.EntriesLost > 0 || r.DatabasesLost > 0 }

// Clean reports whether there was nothing to heal.
func (r *RepairReport) Clean() bool {
	return r.TempsSwept == 0 && len(r.CorruptMoved) == 0 && len(r.OrphansMoved) == 0 &&
		r.CacheDropped == 0 && !r.ManifestRebuilt &&
		!r.RolledForward && !r.RolledBack && !r.JournalReset && len(r.Shards) == 0
}

// moveAside relocates one root-level artifact into lost+found/ (shard
// artifacts move through their box's moveAside).
func (s *Store) moveAside(rel string) error {
	return box{root: s.dir}.moveAside(rel)
}

// Repair heals the store in place and reports what it salvaged: temp
// sweep, then every shard repaired from its own journal and artifacts
// (each pass behind the store.shard.repair fault site), then the root
// manifest re-merged from the surviving shard manifests. After a nil-error
// return the store passes Verify and Load. On an already-clean store it is
// a no-op (all-zero report). The error return is reserved for stores it
// cannot operate on at all (I/O failures); partial salvage is a report,
// not an error — check Lossy.
func (s *Store) Repair() (*RepairReport, error) {
	ctx, t := s.beginOp("repair")
	rep, err := s.repair(ctx)
	if err != nil {
		t.End("error", "error", err.Error())
		return nil, err
	}
	t.End("ok",
		"temps_swept", strconv.Itoa(rep.TempsSwept),
		"lossy", strconv.FormatBool(rep.Lossy()))
	return rep, nil
}

func (s *Store) repair(ctx context.Context) (*RepairReport, error) {
	rep := &RepairReport{}
	swept, err := s.sweepAllTemps()
	if err != nil {
		return nil, fmt.Errorf("store: repair: %w", err)
	}
	rep.TempsSwept = swept
	s.open.TempsSwept += swept
	// On a replicated store, heal across replicas first: any artifact with
	// one verified copy left is restored everywhere before the per-shard
	// salvage runs, so the lossy path below is reached only when every copy
	// is bad.
	if s.replicas > 1 {
		if _, err := s.scrubCopies(ctx, &ScrubReport{}); err != nil {
			return nil, err
		}
	}
	root := s.rootBox()
	js := root.readJournal()
	count := s.shardCount

	// The root candidate: a decodable on-disk root manifest is the repair
	// intent; a torn one moves aside and the root is re-merged from shards.
	cand, mdataOld := s.repairRootCandidate(rep)
	refs := map[string]string{}
	if cand != nil {
		for _, sr := range cand.Shards {
			refs[sr.Name] = sr.Hash
		}
	}
	names, err := s.shardUniverse(refs)
	if err != nil {
		return nil, fmt.Errorf("store: repair: %w", err)
	}

	var parts []shardPart
	for _, name := range names {
		if err := fault.Inject(fault.SiteShardRepair); err != nil {
			return nil, fmt.Errorf("store: repair shard %s: %w", name, err)
		}
		done := s.shardOp(ctx, "shard_repair", name)
		part, err := s.repairShard(name, count, rep)
		done(err)
		if err != nil {
			return nil, err
		}
		if part != nil {
			parts = append(parts, *part)
		}
	}

	// The root merge: rebuild the global index from the healed shard
	// manifests and write it back through the journaled machinery, only if
	// the on-disk index or journal disagrees with the repaired state.
	if err := fault.Inject(fault.SiteShardRepair); err != nil {
		return nil, fmt.Errorf("store: repair merge: %w", err)
	}
	info := BuildInfo{}
	var rejections map[string]int
	var quarantine []bench.Quarantined
	switch {
	case cand != nil:
		info, rejections, quarantine = cand.Build, cand.Rejections, cand.Quarantine
	case js.Begin != nil && js.Begin.Build != nil:
		info = *js.Begin.Build
	case len(parts) > 0:
		info = parts[0].m.Build
	}
	m := mergeManifest(info, count, s.replicas, parts, rejections, quarantine)
	mdata, err := canonicalJSON(m)
	if err != nil {
		return nil, err
	}
	sum := []byte(hashBytes(mdata) + "\n")
	curM, _ := os.ReadFile(root.path(manifestName))
	curS, _ := os.ReadFile(root.path(manifestSumName))
	if js.State != JournalClean || !bytes.Equal(curM, mdata) || !bytes.Equal(curS, sum) {
		rep.ManifestRebuilt = rep.ManifestRebuilt || !bytes.Equal(curM, mdata)
		if err := root.journalBegin(journalRecord{Build: &info, Shards: count, Replicas: s.manifestReplicas()}); err != nil {
			return nil, err
		}
		if err := root.commitManifest(mdata); err != nil {
			return nil, err
		}
		rep.JournalReset = true
	}
	if cand != nil && js.State == JournalInProgress {
		if js.intentHashes()[manifestName] == hashBytes(mdataOld) {
			rep.RolledForward = true
		} else {
			rep.RolledBack = true
		}
	}
	rep.EntriesKept = len(m.Entries)
	rep.DatabasesKept = len(m.Databases)
	if cand != nil {
		rep.EntriesLost = max(0, len(cand.Entries)-len(m.Entries))
		rep.DatabasesLost = max(0, len(cand.Databases)-len(m.Databases))
	} else {
		for _, sr := range rep.Shards {
			rep.EntriesLost += sr.EntriesLost
		}
	}
	if rep.RolledForward {
		s.countJournal("rolled_forward")
	}
	if rep.RolledBack {
		s.countJournal("rolled_back")
	}
	// On a replicated store the heal above operated on the primary; push
	// the healed state out so every replica is byte-identical again.
	if err := s.syncSecondaries(names, rep); err != nil {
		return nil, err
	}
	s.open.Shards = nil // healed: the re-read below re-diagnoses from disk
	s.refreshStatus()
	return rep, nil
}

// repairRootCandidate loads the on-disk root manifest as the repair intent
// if it decodes as the current format; an undecodable (torn) or
// wrong-format manifest is moved aside. Returns the manifest (nil if
// unusable) and its raw bytes.
func (s *Store) repairRootCandidate(rep *RepairReport) (*Manifest, []byte) {
	mdata, err := os.ReadFile(s.rootBox().path(manifestName))
	if err != nil {
		return nil, nil
	}
	var m Manifest
	if decodeStrict(mdata, &m) != nil || m.FormatVersion != FormatVersion || !validShardCount(m.ShardCount) {
		if s.moveAside(manifestName) == nil {
			rep.CorruptMoved = append(rep.CorruptMoved, manifestName)
		}
		return nil, nil
	}
	return &m, mdata
}

// repairShard heals one shard directory using nothing outside it: hash
// sweep, cache check, shard-manifest trim or rebuild, orphan moves, then a
// journaled write-back when anything changed. Returns the shard's merge
// contribution (nil when the shard ends up empty) and appends a
// ShardRepair to the report when the shard needed healing.
func (s *Store) repairShard(name string, count int, rep *RepairReport) (*shardPart, error) {
	bx := s.shardBoxName(name)
	sjs := bx.readJournal()
	touched := false

	// Pass 1: hash-sweep the content-addressed directories. What survives
	// is trustworthy; what doesn't goes to lost+found.
	surviving := map[string]map[string]bool{entriesDir: {}, dbsDir: {}}
	for _, dir := range []string{entriesDir, dbsDir} {
		fnames, err := bx.listJSON(dir)
		if err != nil {
			return nil, fmt.Errorf("store: repair: %w", err)
		}
		for _, fname := range fnames {
			rel := dir + "/" + fname
			data, err := os.ReadFile(bx.path(rel))
			if err != nil {
				return nil, fmt.Errorf("store: repair: %w", err)
			}
			h := strings.TrimSuffix(fname, ".json")
			if hashBytes(data) != h {
				if err := bx.moveAside(rel); err != nil {
					return nil, err
				}
				rep.CorruptMoved = append(rep.CorruptMoved, bx.key(rel))
				touched = true
				continue
			}
			surviving[dir][h] = true
		}
	}

	// Pass 2: cache records are disposable checkpoints — corrupt ones are
	// moved, costing a future re-synthesis, nothing else.
	cacheNames, err := bx.listJSON(cacheDir)
	if err != nil {
		return nil, fmt.Errorf("store: repair: %w", err)
	}
	for _, fname := range cacheNames {
		data, err := os.ReadFile(bx.path(cacheDir + "/" + fname))
		if err != nil {
			return nil, fmt.Errorf("store: repair: %w", err)
		}
		if _, err := verifySelfHashed(data); err != nil {
			if err := bx.moveAside(cacheDir + "/" + fname); err != nil {
				return nil, err
			}
			rep.CacheDropped++
			touched = true
		}
	}

	// The shard manifest: a decodable, self-consistent on-disk copy is
	// trimmed to what survived; otherwise it is rebuilt from the surviving
	// entry records, scoped by the shard journal when one survives.
	cand, cdata := shardCandidate(bx, name, count, rep)
	if cand == nil && cdata != nil {
		touched = true // a corrupt candidate was moved aside
	}
	var sm *ShardManifest
	lost := 0
	if cand != nil {
		sm, lost = trimShardManifest(cand, name, count, surviving)
	} else {
		var intents map[string]string
		if sjs.Begin != nil {
			intents = sjs.intentHashes()
		}
		var rebuilt bool
		sm, lost, rebuilt, err = rebuildShardManifest(bx, name, count, surviving, sjs, intents, rep)
		if err != nil {
			return nil, err
		}
		touched = touched || rebuilt
	}

	// Move orphans: surviving artifacts the repaired shard manifest does
	// not reference — typically the rolled-back remains of an uncommitted
	// shard save, or entries planted in a shard they do not route to.
	refE, refD := map[string]bool{}, map[string]bool{}
	for _, ref := range sm.Entries {
		refE[ref.Hash] = true
		refD[ref.DB] = true
	}
	for _, h := range sortedKeys(surviving[entriesDir]) {
		if !refE[h] {
			if err := bx.moveAside(entriesDir + "/" + h + ".json"); err != nil {
				return nil, err
			}
			rep.OrphansMoved = append(rep.OrphansMoved, bx.key(entriesDir+"/"+h+".json"))
			touched = true
		}
	}
	for _, h := range sortedKeys(surviving[dbsDir]) {
		if !refD[h] {
			if err := bx.moveAside(dbsDir + "/" + h + ".json"); err != nil {
				return nil, err
			}
			rep.OrphansMoved = append(rep.OrphansMoved, bx.key(dbsDir+"/"+h+".json"))
			touched = true
		}
	}

	// An emptied shard carries no manifest — Save never writes one — so
	// stray index files move aside and the journal resets to a clean no-op.
	if len(sm.Entries) == 0 {
		for _, rel := range []string{manifestName, manifestSumName} {
			if _, err := os.Stat(bx.path(rel)); err == nil {
				if err := bx.moveAside(rel); err != nil {
					return nil, err
				}
				rep.OrphansMoved = append(rep.OrphansMoved, bx.key(rel))
				touched = true
			}
		}
		if sjs.State == JournalInProgress || sjs.State == JournalCorrupt {
			if err := bx.journalBegin(journalRecord{Build: &sm.Build, Shards: count, Replicas: s.manifestReplicas()}); err != nil {
				return nil, err
			}
			if err := bx.journalAppend(journalRecord{Op: opCommit}); err != nil {
				return nil, err
			}
			rep.JournalReset = true
			touched = true
		}
		if touched || lost > 0 {
			rep.Shards = append(rep.Shards, ShardRepair{Shard: name, EntriesKept: 0, EntriesLost: lost})
		}
		return nil, nil
	}

	// Write back through the normal journaled machinery, only if the
	// shard's on-disk index or journal disagrees with the repaired state.
	smdata, err := canonicalJSON(sm)
	if err != nil {
		return nil, err
	}
	sum := []byte(hashBytes(smdata) + "\n")
	curM, _ := os.ReadFile(bx.path(manifestName))
	curS, _ := os.ReadFile(bx.path(manifestSumName))
	if sjs.State != JournalClean || !bytes.Equal(curM, smdata) || !bytes.Equal(curS, sum) {
		if err := bx.journalBegin(journalRecord{Build: &sm.Build, Shards: count, Replicas: s.manifestReplicas()}); err != nil {
			return nil, err
		}
		if err := bx.commitManifest(smdata); err != nil {
			return nil, err
		}
		rep.JournalReset = true
		touched = true
	}
	if cand != nil && sjs.State == JournalInProgress {
		if sjs.intentHashes()[manifestName] == hashBytes(cdata) {
			rep.RolledForward = true
		} else {
			rep.RolledBack = true
		}
	}
	if touched || lost > 0 {
		rep.Shards = append(rep.Shards, ShardRepair{Shard: name, EntriesKept: len(sm.Entries), EntriesLost: lost})
	}
	return &shardPart{name: name, m: sm, hash: hashBytes(smdata)}, nil
}

// shardCandidate loads one shard's on-disk manifest as its repair intent
// if it decodes and describes this very shard; anything else moves aside.
// Returns (nil, raw bytes) when a corrupt candidate was moved, (nil, nil)
// when there was none.
func shardCandidate(bx box, name string, count int, rep *RepairReport) (*ShardManifest, []byte) {
	cdata, err := os.ReadFile(bx.path(manifestName))
	if err != nil {
		return nil, nil
	}
	var sm ShardManifest
	if decodeStrict(cdata, &sm) != nil || sm.FormatVersion != FormatVersion || sm.Shard != name || sm.ShardCount != count {
		if bx.moveAside(manifestName) == nil {
			rep.CorruptMoved = append(rep.CorruptMoved, bx.key(manifestName))
		}
		return nil, cdata
	}
	return &sm, cdata
}

// trimShardManifest drops references whose artifacts did not survive the
// hash sweep (an entry needs both its own record and its database, in this
// shard) or that route to a different shard entirely.
func trimShardManifest(cand *ShardManifest, name string, count int, surviving map[string]map[string]bool) (*ShardManifest, int) {
	keep := cand.Entries[:0:0]
	for _, ref := range cand.Entries {
		if surviving[entriesDir][ref.Hash] && surviving[dbsDir][ref.DB] &&
			shardName(shardIndex(ref.Hash, count)) == name {
			keep = append(keep, ref)
		}
	}
	lost := len(cand.Entries) - len(keep)
	// Databases re-derive from the kept entries, not from what happens to
	// survive on disk: losing a shard's only entry for a database must drop
	// the shard's copy from the manifest too, or the orphan pass (which
	// moves exactly the unreferenced copies aside) would leave the manifest
	// naming an artifact that is gone.
	used := map[string]bool{}
	for _, ref := range keep {
		used[ref.DB] = true
	}
	return &ShardManifest{
		FormatVersion: FormatVersion,
		Shard:         name,
		ShardCount:    count,
		Build:         cand.Build,
		Databases:     sortedKeys(used),
		Entries:       keep,
	}, lost
}

// rebuildShardManifest reconstructs a shard manifest with no usable
// on-disk copy from the surviving entry records themselves — each one
// names its ID, pair and database, which is all a manifest line holds.
// With a surviving shard journal the rebuild is scoped to the journaled
// save's artifact set; without one, every surviving correctly-routed
// artifact is kept.
func rebuildShardManifest(bx box, name string, count int, surviving map[string]map[string]bool, sjs journalInfo, intents map[string]string, rep *RepairReport) (*ShardManifest, int, bool, error) {
	sm := &ShardManifest{FormatVersion: FormatVersion, Shard: name, ShardCount: count}
	if sjs.Begin != nil && sjs.Begin.Build != nil {
		sm.Build = *sjs.Begin.Build
	}
	unloadable := 0
	for _, h := range sortedKeys(surviving[entriesDir]) {
		rel := entriesDir + "/" + h + ".json"
		if intents != nil && intents[rel] == "" {
			continue // not part of the journaled save; the orphan pass moves it
		}
		if shardName(shardIndex(h, count)) != name {
			continue // foreign-routed plant; the orphan pass moves it
		}
		data, err := os.ReadFile(bx.path(rel))
		if err != nil {
			continue
		}
		rec, err := decodeEntryRecord(data)
		if err != nil {
			// Hash-valid but not an entry record: foreign bytes planted at
			// a truthful address. Unsalvageable as an entry.
			if bx.moveAside(rel) == nil {
				surviving[entriesDir][h] = false
				rep.CorruptMoved = append(rep.CorruptMoved, bx.key(rel))
			}
			continue
		}
		if !surviving[dbsDir][rec.DB] {
			unloadable++ // record survived, its database copy did not
			continue
		}
		sm.Entries = append(sm.Entries, EntryRef{ID: rec.ID, PairID: rec.PairID, Hash: h, DB: rec.DB})
	}
	sort.Slice(sm.Entries, func(i, j int) bool {
		if sm.Entries[i].ID != sm.Entries[j].ID {
			return sm.Entries[i].ID < sm.Entries[j].ID
		}
		return sm.Entries[i].Hash < sm.Entries[j].Hash
	})
	used := map[string]bool{}
	for _, ref := range sm.Entries {
		used[ref.DB] = true
	}
	sm.Databases = sortedKeys(used)
	lost := unloadable
	if intents != nil {
		intended := 0
		for _, p := range sortedKeysAny(intents) {
			if strings.HasPrefix(p, entriesDir+"/") {
				intended++
			}
		}
		lost = max(0, intended-len(sm.Entries))
	}
	// A rebuild only "happened" if there was anything to index or a journal
	// implying there should have been; an untouched empty directory is not
	// a repair event.
	rebuilt := len(sm.Entries) > 0 || lost > 0 || sjs.State == JournalInProgress
	return sm, lost, rebuilt, nil
}

// sortedKeys returns a map's true-valued keys in sorted order — map
// iteration feeding writes must be ordered in this package (detrand).
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// WriteRepair renders a repair report in the quarantine-report style: a
// summary, detail lines, per-shard outcomes, then the moved artifacts
// capped at 20.
func WriteRepair(w io.Writer, rep *RepairReport) {
	if rep.Clean() {
		fmt.Fprintln(w, "repair: clean store, nothing to do")
		return
	}
	fmt.Fprintf(w, "repair: swept %d temp files, moved %d corrupt and %d orphan artifacts, dropped %d cache records\n",
		rep.TempsSwept, len(rep.CorruptMoved), len(rep.OrphansMoved), rep.CacheDropped)
	fmt.Fprintf(w, "  kept %d entries / %d databases; lost %d entries / %d databases\n",
		rep.EntriesKept, rep.DatabasesKept, rep.EntriesLost, rep.DatabasesLost)
	for _, sr := range rep.Shards {
		fmt.Fprintf(w, "  shard %s: kept %d entries, lost %d\n", sr.Shard, sr.EntriesKept, sr.EntriesLost)
	}
	if rep.RolledForward {
		fmt.Fprintln(w, "  rolled forward: an interrupted save had landed its manifest; committed")
	}
	if rep.RolledBack {
		fmt.Fprintln(w, "  rolled back: uncommitted save artifacts moved to lost+found")
	}
	if rep.ManifestRebuilt {
		fmt.Fprintln(w, "  manifest rebuilt from surviving artifacts")
	}
	moved := make([]string, 0, len(rep.CorruptMoved)+len(rep.OrphansMoved))
	moved = append(moved, rep.CorruptMoved...)
	moved = append(moved, rep.OrphansMoved...)
	sort.Strings(moved)
	writeCapped(w, lostFoundDir+"/", moved)
}

// writeCapped prints an indented prefix+path line for the first 20 paths
// of a repair or scrub report, then "… and N more" for the rest.
func writeCapped(w io.Writer, prefix string, paths []string) {
	shown := paths
	if len(shown) > 20 {
		shown = shown[:20]
	}
	for _, p := range shown {
		fmt.Fprintf(w, "  %s%s\n", prefix, p)
	}
	if n := len(paths) - len(shown); n > 0 {
		fmt.Fprintf(w, "  … and %d more\n", n)
	}
}
