// A box is one self-contained artifact directory: the store root or one
// shard. Root and shards share every durability mechanism — temp→fsync→
// rename writes, the intent journal, the temp-file sweep, sorted artifact
// listing, the move-aside into lost+found — so the PR-4 crash-consistency
// machinery runs verbatim at both levels; only the directory and the
// fault-injection site differ.

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nvbench/internal/fault"
)

// box addresses one artifact directory under a store root. rel is the
// slash-separated path of the box below the root ("" for the root box,
// "shards/03" for a shard, "replicas/r1/shards/03" for a replica copy);
// inject is the write-side fault hook, bound at construction to one of
// the injector closures below. rinject is the read-side hook; when nil,
// reads inject store.load.
type box struct {
	root    string
	rel     string
	inject  func() error
	rinject func() error
}

// The injectors a box can be bound to. Each closure names its site as a
// compile-time constant — the form the faultsite analyzer and the crash
// sweeps can enumerate — so routing a box to a site never puts a runtime
// value into a fault.Inject call.
var (
	injectStoreLoad    = func() error { return fault.Inject(fault.SiteStoreLoad) }
	injectShardSave    = func() error { return fault.Inject(fault.SiteShardSave) }
	injectShardMerge   = func() error { return fault.Inject(fault.SiteShardMerge) }
	injectReplicaSave  = func() error { return fault.Inject(fault.SiteReplicaSave) }
	injectReplicaRead  = func() error { return fault.Inject(fault.SiteReplicaRead) }
	injectReplicaScrub = func() error { return fault.Inject(fault.SiteReplicaScrub) }
)

// injectWrite fires the box's write-side fault hook; a box constructed
// without one (repair's bare move-aside box) injects nothing.
func (bx box) injectWrite() error {
	if bx.inject == nil {
		return nil
	}
	return bx.inject()
}

// path resolves a box-relative slash path to a filesystem path.
func (bx box) path(rel string) string {
	p := filepath.Join(bx.root, filepath.FromSlash(bx.rel))
	if rel == "" {
		return p
	}
	return filepath.Join(p, filepath.FromSlash(rel))
}

// key returns the store-root-relative slash path of a box-relative path —
// the form every error message, corruption report and lost+found mirror
// uses.
func (bx box) key(rel string) string {
	if bx.rel == "" {
		return rel
	}
	if rel == "" {
		return bx.rel
	}
	return bx.rel + "/" + rel
}

// writeArtifact durably writes one artifact: temp file, fsync, rename,
// fsync of the parent directory — after the call returns, no crash can
// un-write the artifact. The parent directory is created as needed (shard
// directories appear on first write). Under a torn fault, exactly the
// surviving prefix lands at the final path — the on-disk state a crash
// between rename and a full flush would leave — and the injected error is
// returned.
func (bx box) writeArtifact(rel string, data []byte) error {
	injErr := bx.injectWrite()
	var torn *fault.TornError
	if injErr != nil && !errors.As(injErr, &torn) {
		return fmt.Errorf("store: write %s: %w", bx.key(rel), injErr)
	}
	if torn != nil {
		data = data[:int(torn.Frac*float64(len(data)))]
	}
	path := bx.path(rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: write %s: %w", bx.key(rel), err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", bx.key(rel), err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		// fsync before rename: a crash must never leave the rename as the
		// only thing that survived.
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr == nil {
		werr = syncDir(filepath.Dir(path))
	}
	if werr != nil {
		// Best-effort cleanup; the write error is what the caller acts on.
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", bx.key(rel), werr)
	}
	if torn != nil {
		return fmt.Errorf("store: write %s: %w", bx.key(rel), injErr)
	}
	return nil
}

// readArtifact reads one artifact from the box through its read-side
// fault hook (store.load unless the box was routed elsewhere — the
// primary replica of a replicated store reads through
// store.replica.read).
func (bx box) readArtifact(rel string) ([]byte, error) {
	read := bx.rinject
	if read == nil {
		read = injectStoreLoad
	}
	if err := read(); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", bx.key(rel), err)
	}
	data, err := os.ReadFile(bx.path(rel))
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", bx.key(rel), err)
	}
	return data, nil
}

// writeIntended writes one integrity-bearing artifact through the box's
// journal: the intent (path + content hash) is logged and fsync'd first,
// then the bytes. When an identical artifact is already in place the
// committed copy is left untouched — a re-save must never expose
// committed data to a torn rewrite — but the intent is still logged, so
// the journal names the complete artifact set of the save.
func (bx box) writeIntended(rel, hash string, data []byte) error {
	if err := bx.journalAppend(journalRecord{Op: opIntent, Path: rel, Hash: hash}); err != nil {
		return err
	}
	if existing, err := os.ReadFile(bx.path(rel)); err == nil && hashBytes(existing) == hash {
		return nil
	}
	return bx.writeArtifact(rel, data)
}

// commitManifest closes a box's save with its index, every step through
// the journal: the manifest's intent and bytes, the intent and bytes of
// its self-hash, then the commit record. The root merge, every shard save
// and both Repair write-backs end with it.
func (bx box) commitManifest(data []byte) error {
	h := hashBytes(data)
	if err := bx.writeIntended(manifestName, h, data); err != nil {
		return err
	}
	sum := []byte(h + "\n")
	if err := bx.writeIntended(manifestSumName, hashBytes(sum), sum); err != nil {
		return err
	}
	return bx.journalAppend(journalRecord{Op: opCommit})
}

// journalBegin rotates the box's journal: the file is atomically replaced
// with a single begin record for the save now starting. Previous records
// are gone on purpose — they described a committed (or repaired) state
// that the artifacts themselves now witness.
func (bx box) journalBegin(rec journalRecord) error {
	rec.Op = opBegin
	line, err := journalLine(rec)
	if err != nil {
		return err
	}
	return bx.writeArtifact(journalName, line)
}

// journalAppend durably appends one record. It passes through the box's
// injection site; a torn fault persists only a prefix of the line (the
// state a crash mid-append leaves), then fails. A torn tail left by an
// earlier crash is healed first so this record starts on a fresh line.
func (bx box) journalAppend(rec journalRecord) error {
	line, err := journalLine(rec)
	if err != nil {
		return err
	}
	injErr := bx.injectWrite()
	var torn *fault.TornError
	if injErr != nil && !errors.As(injErr, &torn) {
		return fmt.Errorf("store: journal %s %s: %w", bx.key(journalName), rec.Op, injErr)
	}
	if torn != nil {
		line = line[:int(torn.Frac*float64(len(line)))]
	}
	if err := os.MkdirAll(bx.path(""), 0o755); err != nil {
		return fmt.Errorf("store: journal %s %s: %w", bx.key(journalName), rec.Op, err)
	}
	f, err := os.OpenFile(bx.path(journalName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal %s %s: %w", bx.key(journalName), rec.Op, err)
	}
	werr := healTail(f)
	if werr == nil {
		_, werr = f.Write(line)
	}
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: journal %s %s: %w", bx.key(journalName), rec.Op, werr)
	}
	if torn != nil {
		return fmt.Errorf("store: journal %s %s: %w", bx.key(journalName), rec.Op, injErr)
	}
	return nil
}

// readJournal loads and classifies the box's journal.
func (bx box) readJournal() journalInfo {
	data, err := os.ReadFile(bx.path(journalName))
	if err != nil {
		return journalInfo{State: JournalNone}
	}
	return recoverJournal(data)
}

// sweepTemps removes stray .<name>.tmp* files that interrupted writes
// (kills, crashes) leave behind in the box's directory and the given
// subdirectories, returning how many were removed.
func (bx box) sweepTemps(subs []string) (int, error) {
	swept := 0
	for _, sub := range subs {
		ents, err := os.ReadDir(bx.path(sub))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return swept, err
		}
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
				continue
			}
			if err := os.Remove(filepath.Join(bx.path(sub), name)); err != nil {
				return swept, err
			}
			swept++
		}
	}
	return swept, nil
}

// listJSON returns the sorted .json artifact names under one box
// subdirectory (temp files from in-flight writes are skipped).
func (bx box) listJSON(dir string) ([]string, error) {
	ents, err := os.ReadDir(bx.path(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	// os.ReadDir sorts by name; artifact names are fixed-width hex, so the
	// listing is already deterministic.
	return names, nil
}

// moveAside relocates one box artifact into the store root's lost+found/,
// mirroring its root-relative path. Same-named collisions overwrite:
// names are content addresses, so the bytes are the bytes.
func (bx box) moveAside(rel string) error {
	dst := filepath.Join(bx.root, lostFoundDir, filepath.FromSlash(bx.key(rel)))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: repair: %w", err)
	}
	src := bx.path(rel)
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("store: repair: %w", err)
	}
	// A crash between the rename and the next sweep must not resurrect the
	// quarantined artifact: sync both the destination and source parents so
	// the move is durable before repair reports the store healed.
	if err := syncDir(filepath.Dir(dst)); err != nil {
		return fmt.Errorf("store: repair: %w", err)
	}
	if err := syncDir(filepath.Dir(src)); err != nil {
		return fmt.Errorf("store: repair: %w", err)
	}
	return nil
}
