// Anti-entropy scrubbing: Scrub re-hashes every artifact of every shard
// across all replicas and heals divergence by copying from a verified
// copy. Content addressing is what makes this quorum-free — the root
// manifest names the hash every artifact must have, so "which copy is
// right" is a hash check, not a vote: one surviving good copy restores
// the rest, however many are bad. Only when every copy of an artifact is
// bad does the scrubber escalate to Repair's salvage (which drops what
// cannot be restored and re-merges the root).
//
// The scrubber is idempotent by construction: it only ever writes bytes
// that hash to the manifest's expectation, so a second pass over a
// scrubbed store finds nothing to do. It runs one-shot (cmd/nvbench
// -scrub) or in the background (RunScrubber, fed by an external tick
// channel so tests drive it deterministically). Every examination and
// every repair copy passes the store.replica.scrub fault site.

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
	"time"
)

// ScrubReport says what one scrub pass examined and healed.
type ScrubReport struct {
	Shards           int           `json:"shards"`                  // shards examined
	Replicas         int           `json:"replicas"`                // replica count of the store
	ArtifactsChecked int           `json:"artifacts_checked"`       // copies re-hashed
	Repaired         []string      `json:"repaired,omitempty"`      // copies rewritten from a verified replica
	MovedAside       []string      `json:"moved_aside,omitempty"`   // lying-named extras moved to lost+found
	Unrecoverable    []string      `json:"unrecoverable,omitempty"` // artifacts bad in every replica
	Escalated        bool          `json:"escalated,omitempty"`     // the Repair salvage was needed
	Repair           *RepairReport `json:"repair,omitempty"`        // the escalated repair, when one ran
}

// Clean reports whether the pass found nothing to heal.
func (r *ScrubReport) Clean() bool {
	return len(r.Repaired) == 0 && len(r.MovedAside) == 0 && len(r.Unrecoverable) == 0 && !r.Escalated
}

// Lossy reports whether the scrub met content no replica could restore —
// the condition under which cmd/nvbench -scrub exits non-zero. An
// escalated repair that salvaged everything losslessly is not lossy.
func (r *ScrubReport) Lossy() bool {
	if r.Repair != nil {
		return r.Repair.Lossy()
	}
	return len(r.Unrecoverable) > 0
}

// Scrub runs one anti-entropy pass: every artifact of every shard is
// re-hashed in every replica, divergent or corrupt copies are rewritten
// from any copy that still hashes true, and artifacts bad in every
// replica escalate to Repair. On a single-copy store the pass degenerates
// to Verify plus the escalation rule — there is no second copy to heal
// from. After a nil-error return on a
// replicated store with nothing unrecoverable, every replica passes
// Verify and reads route to the primary again.
func (s *Store) Scrub(ctx context.Context) (*ScrubReport, error) {
	_, t := s.beginOp("scrub")
	rep, err := s.scrub(ctx)
	if err != nil {
		t.End("error", "error", err.Error())
		return rep, err
	}
	t.End("ok",
		"replicas", strconv.Itoa(rep.Replicas),
		"repaired", strconv.Itoa(len(rep.Repaired)),
		"escalated", strconv.FormatBool(rep.Escalated))
	return rep, nil
}

func (s *Store) scrub(ctx context.Context) (*ScrubReport, error) {
	s.countScrubCycle()
	rep := &ScrubReport{Replicas: s.replicas}
	escalate := false
	if s.replicas > 1 {
		esc, err := s.scrubCopies(ctx, rep)
		if err != nil {
			return rep, err
		}
		escalate = esc
	} else {
		fr, err := s.Verify()
		if err != nil {
			return rep, err
		}
		rep.Shards = s.shardCount
		rep.ArtifactsChecked = fr.Checked
		escalate = !fr.OK()
	}
	if escalate {
		rep.Escalated = true
		rr, err := s.Repair()
		if err != nil {
			return rep, err
		}
		rep.Repair = rr
	}
	s.addScrubRepaired(len(rep.Repaired))
	m, _, _ := s.peekManifest() // nil when it fails: no linkage to check
	s.refreshStatus(m)
	s.selectServing()
	return rep, nil
}

// scrubArtifact is one expected artifact of a shard: its shard-relative
// path and the content hash every replica's copy must have.
type scrubArtifact struct {
	rel  string
	hash string
}

// scrubCopies is the cross-replica heal at the heart of Scrub (Repair
// also runs it as a pre-pass on replicated stores): per shard, find the
// replicas whose copy of each artifact still hashes true and rewrite the
// rest from one of them. Returns whether escalation to Repair is needed —
// an artifact, shard manifest, or journal bad in every replica.
func (s *Store) scrubCopies(ctx context.Context, rep *ScrubReport) (escalate bool, err error) {
	m, err := s.loadManifest()
	if err != nil {
		// No usable root manifest: only Repair's root rebuild can help.
		return true, nil
	}
	for _, sr := range m.Shards {
		if err := ctx.Err(); err != nil {
			return escalate, fmt.Errorf("store: scrub: %w", err)
		}
		rep.Shards++
		esc, err := s.scrubShard(sr, m.ShardCount, rep)
		if err != nil {
			return escalate, err
		}
		escalate = escalate || esc
	}
	return escalate, nil
}

// scrubShard heals one shard of a count-shard layout across all replicas.
func (s *Store) scrubShard(sr ShardRef, count int, rep *ScrubReport) (escalate bool, err error) {
	// The truth copy: the first replica whose shard manifest hashes to the
	// root manifest's expectation. Without one the shard's artifact set is
	// unknowable here — Repair rebuilds it from surviving entry records.
	var smdata []byte
	for r := 0; r < s.replicas; r++ {
		rep.ArtifactsChecked++
		data, rerr := s.scrubShardBox(r, sr.Name).readArtifact(manifestName)
		if rerr == nil && hashBytes(data) == sr.Hash {
			smdata = data
			break
		}
	}
	if smdata == nil {
		rep.Unrecoverable = append(rep.Unrecoverable, s.replicaShardRel(0, sr.Name)+"/"+manifestName)
		return true, nil
	}
	sm, perr := parseShardManifest(smdata, sr.Name, count)
	if perr != nil {
		// Hashes true yet fails the parse rule: the root manifest itself
		// references garbage. Only a repair can untangle that.
		rep.Unrecoverable = append(rep.Unrecoverable, s.replicaShardRel(0, sr.Name)+"/"+manifestName)
		return true, nil
	}
	sum := []byte(sr.Hash + "\n")
	want := []scrubArtifact{
		{rel: manifestName, hash: sr.Hash},
		{rel: manifestSumName, hash: hashBytes(sum)},
	}
	seen := map[string]bool{}
	for _, ref := range sm.Entries {
		if rel := entriesDir + "/" + ref.Hash + ".json"; !seen[rel] {
			seen[rel] = true
			want = append(want, scrubArtifact{rel: rel, hash: ref.Hash})
		}
	}
	for _, h := range sm.Databases {
		want = append(want, scrubArtifact{rel: dbsDir + "/" + h + ".json", hash: h})
	}
	expected := map[string]bool{}
	for _, a := range want {
		expected[a.rel] = true
		esc, err := s.scrubOne(sr.Name, a, rep)
		if err != nil {
			return escalate, err
		}
		escalate = escalate || esc
	}
	esc, err := s.scrubJournal(sr.Name, rep)
	if err != nil {
		return escalate, err
	}
	escalate = escalate || esc
	if err := s.scrubExtras(sr.Name, expected, rep); err != nil {
		return escalate, err
	}
	return escalate, nil
}

// scrubOne heals one artifact across all replicas: every copy is re-read
// and re-hashed; bad or missing copies are rewritten from the first copy
// that hashes to the manifest's expectation. With no good copy anywhere
// the artifact is unrecoverable here and the pass escalates.
func (s *Store) scrubOne(shard string, a scrubArtifact, rep *ScrubReport) (escalate bool, err error) {
	var good []byte
	var bad []int
	for r := 0; r < s.replicas; r++ {
		rep.ArtifactsChecked++
		data, rerr := s.scrubShardBox(r, shard).readArtifact(a.rel)
		if rerr == nil && hashBytes(data) == a.hash {
			if good == nil {
				good = data
			}
			continue
		}
		bad = append(bad, r)
	}
	if good == nil {
		rep.Unrecoverable = append(rep.Unrecoverable, s.replicaShardRel(0, shard)+"/"+a.rel)
		return true, nil
	}
	for _, r := range bad {
		bx := s.scrubShardBox(r, shard)
		if err := bx.writeArtifact(a.rel, good); err != nil {
			return false, err
		}
		rep.Repaired = append(rep.Repaired, bx.key(a.rel))
	}
	return false, nil
}

// scrubJournal forces the shard journals byte-identical across replicas.
// Any replica whose journal diverges from a copy recording a committed
// save is rewritten from it; with no committed journal anywhere the pass
// escalates (Repair rolls the shard forward or back and resets journals).
func (s *Store) scrubJournal(shard string, rep *ScrubReport) (escalate bool, err error) {
	raws := make([][]byte, s.replicas)
	var truth []byte
	for r := 0; r < s.replicas; r++ {
		rep.ArtifactsChecked++
		data, rerr := s.scrubShardBox(r, shard).readArtifact(journalName)
		if rerr != nil {
			continue
		}
		raws[r] = data
		if truth == nil && recoverJournal(data).State == JournalClean {
			truth = data
		}
	}
	if truth == nil {
		return true, nil
	}
	for r := 0; r < s.replicas; r++ {
		if bytes.Equal(raws[r], truth) {
			continue
		}
		bx := s.scrubShardBox(r, shard)
		if err := bx.writeArtifact(journalName, truth); err != nil {
			return false, err
		}
		rep.Repaired = append(rep.Repaired, bx.key(journalName))
	}
	return false, nil
}

// scrubExtras moves aside lying-named artifacts the shard manifest does
// not reference — bytes at a content address they do not hash to. Extras
// that hash true are left for Repair's orphan pass: they are valid
// artifacts, just unreferenced, and scrubbing is about bit-rot, not
// garbage collection.
func (s *Store) scrubExtras(shard string, expected map[string]bool, rep *ScrubReport) error {
	for r := 0; r < s.replicas; r++ {
		bx := s.scrubShardBox(r, shard)
		for _, dir := range []string{entriesDir, dbsDir} {
			names, err := bx.listJSON(dir)
			if err != nil {
				return fmt.Errorf("store: scrub: %w", err)
			}
			for _, fname := range names {
				rel := dir + "/" + fname
				if expected[rel] {
					continue
				}
				rep.ArtifactsChecked++
				data, err := os.ReadFile(bx.path(rel))
				if err != nil {
					continue
				}
				if hashBytes(data) == strings.TrimSuffix(fname, ".json") {
					continue
				}
				if err := bx.moveAside(rel); err != nil {
					return err
				}
				rep.MovedAside = append(rep.MovedAside, bx.key(rel))
			}
		}
	}
	return nil
}

// WriteScrub renders a scrub report in the repair-report style.
func WriteScrub(w io.Writer, rep *ScrubReport) {
	if rep.Clean() {
		fmt.Fprintf(w, "scrub: clean, %d artifact copies verified across %d replicas\n", rep.ArtifactsChecked, rep.Replicas)
		return
	}
	fmt.Fprintf(w, "scrub: checked %d artifact copies across %d replicas: repaired %d, moved %d aside, %d unrecoverable\n",
		rep.ArtifactsChecked, rep.Replicas, len(rep.Repaired), len(rep.MovedAside), len(rep.Unrecoverable))
	listed := append(append([]string{}, rep.Repaired...), rep.MovedAside...)
	sort.Strings(listed)
	writeCapped(w, "", listed)
	for _, rel := range rep.Unrecoverable {
		fmt.Fprintf(w, "  UNRECOVERABLE %s\n", rel)
	}
	if rep.Repair != nil {
		fmt.Fprintln(w, "  escalated to repair:")
		WriteRepair(w, rep.Repair)
	}
}

// RunScrubber runs Scrub on every tick until ctx is done or the tick
// channel closes, reporting each cycle to onCycle (nil is allowed). The
// tick source is external — time.Ticker in cmd/nvbench serve mode, a
// hand-fed channel in tests — so the store itself never reads the wall
// clock; cycle durations are timed by the injected obs clock like every
// other store operation.
func (s *Store) RunScrubber(ctx context.Context, ticks <-chan time.Time, onCycle func(*ScrubReport, error)) {
	for {
		select {
		case <-ctx.Done():
			return
		case _, ok := <-ticks:
			if !ok {
				return
			}
			rep, err := s.Scrub(ctx)
			if onCycle != nil {
				onCycle(rep, err)
			}
		}
	}
}

// syncSecondaries makes every secondary replica byte-identical to the
// healed primary, shard by shard — the final step of Repair on a
// replicated store. For every file in the shard's integrity-bearing set
// (manifest, sum, journal, entries, databases) the primary's copy is
// authoritative: secondaries gain what they lack, divergent copies are
// rewritten, and files the primary no longer has move aside. After this, Verify over every replica sees one state.
func (s *Store) syncSecondaries(names []string, rep *RepairReport) error {
	if s.replicas <= 1 {
		return nil
	}
	for _, name := range names {
		primary := s.replicaShardBox(0, name)
		files := map[string]bool{}
		for _, rel := range []string{manifestName, manifestSumName, journalName} {
			files[rel] = true
		}
		boxes := make([]box, s.replicas)
		boxes[0] = primary
		for r := 1; r < s.replicas; r++ {
			boxes[r] = s.scrubShardBox(r, name)
		}
		for _, bx := range boxes {
			for _, dir := range []string{entriesDir, dbsDir} {
				fnames, err := bx.listJSON(dir)
				if err != nil {
					return fmt.Errorf("store: repair: %w", err)
				}
				for _, fname := range fnames {
					files[dir+"/"+fname] = true
				}
			}
		}
		for _, rel := range sortedKeys(files) {
			want, perr := os.ReadFile(primary.path(rel))
			for r := 1; r < s.replicas; r++ {
				bx := boxes[r]
				got, gerr := os.ReadFile(bx.path(rel))
				switch {
				case perr != nil && gerr == nil:
					// The primary no longer holds this file (repair moved it
					// aside or the shard emptied); the secondary's copy goes
					// the same way.
					if err := bx.moveAside(rel); err != nil {
						return err
					}
					rep.OrphansMoved = append(rep.OrphansMoved, bx.key(rel))
				case perr == nil && (gerr != nil || !bytes.Equal(got, want)):
					if err := bx.writeArtifact(rel, want); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
