// Package store persists a synthesized benchmark to a directory as
// deterministic, content-addressed artifacts — the serialization-and-release
// step the paper performs on nvBench itself (the published dataset), grown
// into a serving substrate: build once, rebuild incrementally, serve from
// disk with cache-validator hashes.
//
// The store is hash-partitioned: entries live in shards, each shard a
// self-contained directory with its own journal, manifest, database
// copies and cache partition, and the root manifest is a deterministic
// merge of the shard manifests. Layout of a store directory:
//
//	MANIFEST.json        root index: format version, shard count, shard
//	                     refs (name + shard-manifest hash), merged entry
//	                     refs (id, pair, content hash, db hash), global
//	                     db hashes, rejection buckets, quarantine
//	MANIFEST.sha256      hex SHA-256 of MANIFEST.json (self-check)
//	JOURNAL.jsonl        root write-ahead journal framing the whole save
//	shards/<nn>/         one shard per first-hash-byte bucket (mod count):
//	  MANIFEST.json      shard index: this shard's entries and databases
//	  MANIFEST.sha256    self-check of the shard manifest
//	  JOURNAL.jsonl      shard-scoped write-ahead journal
//	  entries/<h>.json   one record per benchmark entry, named by the
//	                     SHA-256 of its bytes
//	  dbs/<h>.json       database payloads referenced by this shard's
//	                     entries (duplicated per shard on purpose: a
//	                     shard is loadable with no reads outside itself)
//	  cache/<k>.json     incremental per-pair cache; <k> hashes the
//	                     pair's inputs, the payload is self-hashed
//
// Every artifact is canonical JSON (sorted keys, fixed indentation), so the
// same benchmark always serializes to the same bytes: Save is idempotent,
// a re-Save after Load is byte-identical regardless of how many workers
// wrote the shards, and Verify can detect a single flipped byte anywhere.
// The shard is the unit of blast radius: a torn write, crash mid-save, or
// flipped byte dirties exactly one shard — Open still succeeds, Status
// names the sick shard, LoadPartial serves the healthy ones, and Repair
// heals shard by shard. All reads pass through the store.load fault site;
// writes pass through store.shard.save (inside a shard, pair-cache records
// included) or store.shard.merge (the root merge), and every artifact a
// Save writes is journaled. Load degrades with a wrapped error — never a
// panic — and cache corruption degrades to a cache miss.
//
// The store holds what a build produced, not how it ran: a loaded
// benchmark has no Corpus and zero Stats. A stats.json left by an older
// build is never read, verified, swept or moved.
//
// Format 2 is the only layout. Open refuses a directory whose root
// manifest says format 1 (the flat pre-shard layout) and leaves it
// untouched; rebuild such a benchmark into a fresh store with -save.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nvbench/internal/bench"
	"nvbench/internal/dataset"
	"nvbench/internal/obs"
)

// FormatVersion identifies the sharded artifact layout.
const FormatVersion = 2

const (
	manifestName    = "MANIFEST.json"
	manifestSumName = "MANIFEST.sha256"
	entriesDir      = "entries"
	dbsDir          = "dbs"
	cacheDir        = "cache"
)

// Store is a benchmark store rooted at one directory.
type Store struct {
	dir           string
	shardCount    int  // shards the next Save writes (fixed by an existing layout)
	countFixed    bool // the layout on disk already chose the count
	replicas      int  // copies of every shard the next Save writes (1 = single-copy layout)
	replicasFixed bool // the layout on disk already chose the replica count
	saveWorkers   int  // bounded pool for parallel shard saves
	open          OpenReport
	ins           *obs.Instruments // nil disables instrumentation; see Instrument

	mu        sync.Mutex     // guards the replica read-routing bookkeeping below
	serving   map[string]int // shard name → replica index serving reads
	failovers []Failover     // every read re-route since Open, in order
	health    [][]string     // per replica: shards whose copy failed its last self-check

	// The benchmark last saved or loaded, with its manifest, and the
	// secondary indexes built over it on demand; see LoadIndexes.
	indexed         *bench.Benchmark
	indexedManifest *Manifest
	indexes         map[string]*Index
}

// ShardStatus is one sick shard in an OpenReport: its journal state, the
// classification of an interrupted save's intended artifacts, and a
// one-line detail for problems beyond the journal (manifest mismatch,
// fsck findings, load failures).
type ShardStatus struct {
	Shard          string       // shard name ("00".."ff")
	Journal        JournalState // the shard's own journal
	PendingIntents int          // artifacts the interrupted shard save intended
	PendingMissing int          // of those, absent on disk
	PendingTorn    int          // of those, present but hashing wrong
	Detail         string       // non-journal diagnosis ("" when none)
}

// OpenReport is what Open (or the last Save/Verify/Repair) learned about
// the store's crash state: how many stray temp files were swept, what the
// root journal says, and — per shard — which shards are dirty or sick.
// Healthy shards do not appear; an all-healthy store has an empty Shards
// list.
type OpenReport struct {
	TempsSwept     int           // stray .*.tmp* files removed
	Journal        JournalState  // root journal: clean / in-progress / corrupt / none
	PendingIntents int           // root artifacts the interrupted merge intended
	PendingMissing int           // of those, absent on disk
	PendingTorn    int           // of those, present but hashing wrong (torn write)
	ShardCount     int           // shard count of the layout
	Shards         []ShardStatus // dirty or sick shards, in name order
}

// SickShards names the shards the report flags, in name order.
func (r OpenReport) SickShards() []string {
	out := make([]string, 0, len(r.Shards))
	for _, ss := range r.Shards {
		out = append(out, ss.Shard)
	}
	return out
}

// Dirty reports whether anything — root journal or any shard — needs
// Repair (or a completed re-save) before the store is fully trustworthy.
func (r OpenReport) Dirty() bool {
	return r.Journal == JournalInProgress || r.Journal == JournalCorrupt || len(r.Shards) > 0
}

// String renders the report as a one-line diagnosis.
func (r OpenReport) String() string {
	base := ""
	switch r.Journal {
	case JournalClean:
		base = "clean"
	case JournalInProgress:
		if r.PendingTorn > 0 {
			base = fmt.Sprintf("torn artifact (%d of %d intended artifacts torn, %d missing)",
				r.PendingTorn, r.PendingIntents, r.PendingMissing)
		} else {
			base = fmt.Sprintf("incomplete save (%d intended artifacts, %d missing; roll back with Repair)",
				r.PendingIntents, r.PendingMissing)
		}
	case JournalCorrupt:
		base = "corrupt journal"
	case JournalNone:
		base = "no journal"
	default:
		base = r.Journal.String()
	}
	if len(r.Shards) == 0 {
		return base
	}
	return fmt.Sprintf("%s; %d of %d shards dirty (%s)",
		base, len(r.Shards), r.ShardCount, strings.Join(r.SickShards(), ", "))
}

// Open roots a store at dir, creating it as needed. It detects the
// layout's shard and replica counts, sweeps temp files left by interrupted
// writes and reads every journal, so a crashed store is diagnosed — not
// repaired — at open time; see Status and Repair. A format-1 directory is
// refused before anything on disk is touched.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, shardCount: DefaultShardCount, replicas: 1, saveWorkers: runtime.GOMAXPROCS(0)}
	if err := s.detectLayout(); err != nil {
		return nil, err
	}
	swept, err := s.sweepAllTemps()
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s.open.TempsSwept = swept
	s.refreshStatus()
	return s, nil
}

// detectLayout decides, from what is on disk, what shard and replica
// counts the store uses, and refuses a format-1 store. It must work on
// stores Verify would reject, so it peeks rather than validates.
func (s *Store) detectLayout() error {
	if data, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err == nil {
		var m Manifest
		if decodeStrict(data, &m) == nil {
			if m.FormatVersion == 1 {
				return fmt.Errorf("store: open %s: format 1 (the flat pre-shard layout) is not supported; rebuild the benchmark into a fresh store with -save", s.dir)
			}
			if m.FormatVersion == FormatVersion && validShardCount(m.ShardCount) {
				s.shardCount = m.ShardCount
				s.countFixed = true
				if validReplicaCount(m.ReplicaCount) {
					s.replicas = m.ReplicaCount
				}
				s.replicasFixed = true // zero ReplicaCount pins the single-copy layout
				return nil
			}
		}
	}
	// Torn or absent root manifest: the root journal's begin record carries
	// the shard and replica counts of the save that was in flight.
	if j := s.rootBox().readJournal(); j.Begin != nil && validShardCount(j.Begin.Shards) {
		s.shardCount = j.Begin.Shards
		s.countFixed = true
		if validReplicaCount(j.Begin.Replicas) {
			s.replicas = j.Begin.Replicas
		}
		s.replicasFixed = true
		return nil
	}
	// Manifest and journal both gone: replica directories on disk still
	// witness a replicated layout.
	if n := s.replicaDirsOnDisk(); n >= 2 {
		s.replicas = n
		s.replicasFixed = true
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetShardCount configures how many shards the next Save writes; n must be
// a power of two in [1, 256]. On a store whose on-disk layout already
// fixed a count, the existing count wins silently — re-sharding is a
// re-save into a fresh directory, not an in-place mutation.
func (s *Store) SetShardCount(n int) error {
	if !validShardCount(n) {
		return fmt.Errorf("store: shard count %d: must be a power of two in [1, %d]", n, maxShardCount)
	}
	if !s.countFixed {
		s.shardCount = n
		s.open.ShardCount = n
	}
	return nil
}

// SetSaveWorkers bounds the worker pool parallel shard saves run on.
// Worker count never affects the bytes written, only the wall clock.
func (s *Store) SetSaveWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.saveWorkers = n
}

// Status returns what Open (or the last Save/Verify/Repair) determined
// about the store's crash state.
func (s *Store) Status() OpenReport { return s.open }

// classifyIntents checks an in-progress journal's intended artifacts
// against the box's disk state: how many exist, are missing, or are torn.
func classifyIntents(bx box, j journalInfo) (intents, missing, torn int) {
	if j.State != JournalInProgress {
		return 0, 0, 0
	}
	intents = len(j.Intents)
	for _, in := range j.Intents {
		data, err := os.ReadFile(bx.path(in.Path))
		switch {
		case err != nil:
			missing++
		case hashBytes(data) != in.Hash:
			torn++
		}
	}
	return intents, missing, torn
}

// refreshStatus re-reads every journal into the open report: the root
// journal for the save-in-flight diagnosis, then each shard's journal and
// manifest linkage, keeping only the shards with something wrong.
func (s *Store) refreshStatus() {
	root := s.rootBox()
	j := root.readJournal()
	s.open.Journal = j.State
	s.open.PendingIntents, s.open.PendingMissing, s.open.PendingTorn = classifyIntents(root, j)
	s.open.ShardCount = s.shardCount
	s.open.Shards = nil
	refs := s.rootShardRefs()
	names, err := s.shardUniverse(refs)
	if err != nil {
		return // unreadable shards/ dir: the root diagnosis stands alone
	}
	for _, name := range names {
		want, listed := refs[name]
		// Every replica of the shard must be healthy; the first problem
		// found (primary first) is the one the report carries.
		for r := 0; r < s.replicas; r++ {
			ss := s.shardStatusIn(s.replicaShardBox(r, name), name, want, listed)
			if ss.Journal == JournalInProgress || ss.Journal == JournalCorrupt || ss.Detail != "" {
				if s.replicas > 1 && ss.Detail != "" {
					ss.Detail = fmt.Sprintf("replica %s: %s", replicaName(r), ss.Detail)
				}
				s.open.Shards = append(s.open.Shards, ss)
				break
			}
		}
	}
}

// shardStatusIn diagnoses one shard copy: its journal state, an
// interrupted save's intent classification, and — when the root manifest
// references the shard — its manifest linkage.
func (s *Store) shardStatusIn(bx box, name, want string, listed bool) ShardStatus {
	ss := ShardStatus{Shard: name}
	sj := bx.readJournal()
	ss.Journal = sj.State
	ss.PendingIntents, ss.PendingMissing, ss.PendingTorn = classifyIntents(bx, sj)
	if listed {
		// A shard the root manifest references must carry a matching,
		// journaled manifest of its own; anything else is damage.
		switch smdata, err := os.ReadFile(bx.path(manifestName)); {
		case err != nil:
			ss.Detail = "shard manifest missing"
		case hashBytes(smdata) != want:
			ss.Detail = "shard manifest does not match the root manifest"
		}
		if ss.Detail == "" && sj.State == JournalNone {
			ss.Detail = "missing shard journal"
		}
	}
	return ss
}

// noteSick records a shard-level problem discovered after Open (by Verify
// or LoadPartial) into the open report, so Status names sick shards
// however they were found.
func (s *Store) noteSick(shard, detail string) {
	for i := range s.open.Shards {
		if s.open.Shards[i].Shard == shard {
			if s.open.Shards[i].Detail == "" {
				s.open.Shards[i].Detail = detail
			}
			return
		}
	}
	ss := ShardStatus{Shard: shard, Detail: detail}
	ss.Journal = s.shardBoxName(shard).readJournal().State
	s.open.Shards = append(s.open.Shards, ss)
	sort.Slice(s.open.Shards, func(i, j int) bool { return s.open.Shards[i].Shard < s.open.Shards[j].Shard })
}

// sweepAllTemps sweeps stray temp files in the root and in every shard
// directory on disk, across every replica.
func (s *Store) sweepAllTemps() (int, error) {
	swept, err := s.rootBox().sweepTemps([]string{""})
	if err != nil {
		return swept, err
	}
	for r := 0; r < s.replicas; r++ {
		names, err := s.shardDirsIn(s.replicaShardsRel(r))
		if err != nil {
			return swept, err
		}
		for _, name := range names {
			n, err := s.replicaShardBox(r, name).sweepTemps([]string{"", entriesDir, dbsDir, cacheDir})
			swept += n
			if err != nil {
				return swept, err
			}
		}
	}
	return swept, nil
}

// hashBytes returns the hex SHA-256 of b — the content address used for
// every artifact in the store.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// canonicalJSON is the one serialization every artifact uses: two-space
// indentation, struct field order, sorted map keys (encoding/json sorts
// string-keyed maps), trailing newline. Identical values always produce
// identical bytes.
func canonicalJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeStrict decodes canonical JSON, rejecting unknown fields and
// trailing garbage — both are corruption in a content-addressed artifact.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// Save persists the benchmark sharded: a root journal rotation (begin,
// recording the shard count) first, then every shard saved through its own
// journal — database copies, entry records, shard manifest — fanned out
// across the worker pool, then the root merge: the global manifest
// (assembled deterministically from the shard manifests), its self-hash,
// and the root commit. Content addressing makes Save idempotent —
// re-saving the same benchmark writes nothing new — and deterministic:
// two runs of the same build produce byte-identical stores, journals
// included, at any worker count. A Save that fails or crashes
// partway dirties the root journal plus exactly the shards that had not
// committed, which Open diagnoses and Repair heals.
func (s *Store) Save(b *bench.Benchmark, info BuildInfo) (*Manifest, error) {
	ctx, t := s.beginOp("save")
	m, err := s.save(ctx, b, info)
	if err != nil {
		t.End("error", "error", err.Error())
		return nil, err
	}
	t.End("ok",
		"shards", strconv.Itoa(m.ShardCount),
		"replicas", strconv.Itoa(m.ReplicaCount),
		"entries", strconv.Itoa(len(m.Entries)))
	return m, nil
}

func (s *Store) save(ctx context.Context, b *bench.Benchmark, info BuildInfo) (*Manifest, error) {
	count := s.shardCount
	plans, parts, err := planShards(b, info, count)
	if err != nil {
		return nil, err
	}
	m := mergeManifest(info, count, s.replicas, parts, b.Rejections, b.Quarantine)
	mdata, err := canonicalJSON(m)
	if err != nil {
		return nil, err
	}
	root := s.rootBox()
	if err := root.journalBegin(journalRecord{Build: &info, Shards: count, Replicas: s.manifestReplicas()}); err != nil {
		s.refreshStatus()
		return nil, err
	}
	if err := s.saveShards(ctx, plans, info, count); err != nil {
		// The root journal keeps its uncommitted begin: an aborted save is
		// a dirty store, and the report says so until Repair (or a
		// completed re-save) heals it.
		s.refreshStatus()
		return nil, err
	}
	if err := root.commitManifest(mdata); err != nil {
		s.refreshStatus()
		return nil, err
	}
	s.countFixed = true
	s.replicasFixed = true
	s.setIndexed(b, m)
	s.refreshStatus()
	return m, nil
}

// loadManifest reads and self-checks the root manifest, returning it with
// its raw bytes.
func (s *Store) loadManifest() (*Manifest, []byte, error) {
	data, err := s.rootBox().readArtifact(manifestName)
	if err != nil {
		return nil, nil, err
	}
	sum, err := s.rootBox().readArtifact(manifestSumName)
	if err != nil {
		return nil, nil, err
	}
	if want, got := trimSum(sum), hashBytes(data); want != got {
		return nil, nil, fmt.Errorf("store: %s corrupt: hash %s does not match %s", manifestName, got, want)
	}
	var m Manifest
	if err := decodeStrict(data, &m); err != nil {
		return nil, nil, fmt.Errorf("store: decode %s: %w", manifestName, err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, nil, fmt.Errorf("store: format version %d, this build reads %d", m.FormatVersion, FormatVersion)
	}
	if !validShardCount(m.ShardCount) {
		return nil, nil, fmt.Errorf("store: %s: invalid shard count %d", manifestName, m.ShardCount)
	}
	return &m, data, nil
}

// ShardFailure is one shard LoadPartial could not serve.
type ShardFailure struct {
	Shard       string // shard name
	EntriesLost int    // manifest entries that shard owed
	Err         error  // why it failed
}

// Load reconstructs the benchmark from the store. Every artifact is
// re-hashed against its manifest address on the way in, so a corrupted
// store yields a clear error naming the bad artifact — never a silently
// wrong benchmark and never a panic. Entries that reference the same
// database payload share one in-memory *dataset.Database, as they did at
// build time. The returned benchmark has no Corpus and zero Stats: both
// describe how a build ran, not what it produced.
func (s *Store) Load() (*bench.Benchmark, *Manifest, error) {
	b, m, _, err := s.load(false)
	return b, m, err
}

// LoadPartial reconstructs as much of the benchmark as the healthy shards
// can serve: a shard whose artifacts fail validation is dropped wholesale
// (and recorded, both in the returned failures and in Status), the rest
// load exactly as Load would. The returned manifest is pruned to the
// entries actually loaded, so EntryHashes stays positionally aligned. The
// error return is reserved for stores with nothing to serve at all (no
// readable root manifest).
func (s *Store) LoadPartial() (*bench.Benchmark, *Manifest, []ShardFailure, error) {
	return s.load(true)
}

// load is the one timed operation behind Load and LoadPartial.
func (s *Store) load(partial bool) (*bench.Benchmark, *Manifest, []ShardFailure, error) {
	ctx, t := s.beginOp("load")
	before := s.failoverCount()
	b, m, fails, err := s.loadShards(ctx, partial)
	if err != nil {
		t.End("error", "error", err.Error())
		return nil, nil, nil, err
	}
	outcome := "ok"
	if len(fails) > 0 {
		outcome = "degraded"
	}
	t.End(outcome,
		"shards", strconv.Itoa(m.ShardCount),
		"entries", strconv.Itoa(len(m.Entries)),
		"failed_shards", strconv.Itoa(len(fails)),
		"failover", strconv.FormatBool(s.failoverCount() > before))
	return b, m, fails, nil
}

// loadShards reads the manifest and every shard. In partial mode a
// failing shard is recorded rather than fatal, and the manifest is pruned
// to the entries actually loaded; in strict mode there are no failures to
// prune.
func (s *Store) loadShards(ctx context.Context, partial bool) (*bench.Benchmark, *Manifest, []ShardFailure, error) {
	m, _, err := s.loadManifest()
	if err != nil {
		return nil, nil, nil, err
	}
	entries, fails, err := s.loadShardEntries(ctx, m, partial)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(fails) > 0 {
		failed := map[string]bool{}
		for _, f := range fails {
			failed[f.Shard] = true
		}
		keep := m.Entries[:0:0]
		for _, ref := range m.Entries {
			if !failed[shardName(shardIndex(ref.Hash, m.ShardCount))] {
				keep = append(keep, ref)
			}
		}
		m.Entries = keep
	}
	b := assembleBenchmark(m, entries)
	s.setIndexed(b, m)
	return b, m, fails, nil
}

// loadShardEntries loads every entry the root manifest references, shard
// by shard in name order. In strict mode the first failing shard aborts;
// in partial mode it is recorded (and noted in Status) and the walk
// continues. Databases decode once per content hash and are shared across
// shards, exactly as at build time.
func (s *Store) loadShardEntries(ctx context.Context, m *Manifest, partial bool) ([]*bench.Entry, []ShardFailure, error) {
	groups := map[string][]EntryRef{}
	for _, ref := range m.Entries {
		name := shardName(shardIndex(ref.Hash, m.ShardCount))
		groups[name] = append(groups[name], ref)
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	dbs := map[string]*dataset.Database{}
	entries := make([]*bench.Entry, 0, len(m.Entries))
	var fails []ShardFailure
	for _, name := range names {
		done := s.shardOp(ctx, "shard_load", name)
		es, err := s.loadShardFailover(name, groups[name], dbs)
		done(err)
		if err != nil {
			if !partial {
				return nil, nil, err
			}
			s.noteSick(name, err.Error())
			fails = append(fails, ShardFailure{Shard: name, EntriesLost: len(groups[name]), Err: err})
			continue
		}
		entries = append(entries, es...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries, fails, nil
}

// loadOneShard reads and validates one shard's slice of the manifest.
// Every read stays inside the shard's own directory — including database
// payloads, which the shard carries its own copies of.
func loadOneShard(bx box, refs []EntryRef, dbs map[string]*dataset.Database) ([]*bench.Entry, error) {
	out := make([]*bench.Entry, 0, len(refs))
	for _, ref := range refs {
		if dbs[ref.DB] == nil {
			rel := dbsDir + "/" + ref.DB + ".json"
			data, err := bx.readArtifact(rel)
			if err != nil {
				return nil, err
			}
			if got := hashBytes(data); got != ref.DB {
				return nil, fmt.Errorf("store: %s corrupt: content hash %s does not match address", bx.key(rel), got)
			}
			db, err := decodeDatabase(data)
			if err != nil {
				return nil, fmt.Errorf("store: decode %s: %w", bx.key(rel), err)
			}
			dbs[ref.DB] = db
		}
		rel := entriesDir + "/" + ref.Hash + ".json"
		data, err := bx.readArtifact(rel)
		if err != nil {
			return nil, err
		}
		if got := hashBytes(data); got != ref.Hash {
			return nil, fmt.Errorf("store: %s corrupt: content hash %s does not match address", bx.key(rel), got)
		}
		rec, err := decodeEntryRecord(data)
		if err != nil {
			return nil, fmt.Errorf("store: decode %s: %w", bx.key(rel), err)
		}
		if rec.DB != ref.DB {
			return nil, fmt.Errorf("store: %s references database %s but the manifest says %s", bx.key(rel), rec.DB, ref.DB)
		}
		e, err := rec.toEntry(dbs[ref.DB])
		if err != nil {
			return nil, fmt.Errorf("store: decode %s: %w", bx.key(rel), err)
		}
		if e.ID != ref.ID || e.PairID != ref.PairID {
			return nil, fmt.Errorf("store: %s: entry (%d, pair %d) does not match manifest ref (%d, pair %d)",
				bx.key(rel), e.ID, e.PairID, ref.ID, ref.PairID)
		}
		out = append(out, e)
	}
	return out, nil
}

// assembleBenchmark builds the in-memory benchmark around loaded entries.
func assembleBenchmark(m *Manifest, entries []*bench.Entry) *bench.Benchmark {
	b := &bench.Benchmark{
		Entries:    entries,
		Rejections: map[string]int{},
		Quarantine: m.Quarantine,
	}
	if b.Entries == nil {
		b.Entries = make([]*bench.Entry, 0)
	}
	for k, v := range m.Rejections {
		b.Rejections[k] = v
	}
	return b
}
