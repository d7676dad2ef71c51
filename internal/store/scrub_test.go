// Anti-entropy scrubbing tests: the heal matrix (one bad copy, divergent
// copies, all copies bad), idempotence, the single-copy degenerate case,
// the deterministic background scrubber, chaos on the scrub site, and
// FuzzScrubResolve — arbitrary bytes written over one replica copy must
// always converge back to the manifest-hash copy.

package store

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/fault"
)

func TestScrubCleanStoreIsNoop(t *testing.T) {
	_, b := testBench(t)
	st, m := mustSaveReplicated(t, t.TempDir(), b, 2)
	rep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub of a clean store found work: %+v", rep)
	}
	if rep.Shards != len(m.Shards) || rep.Replicas != 2 || rep.ArtifactsChecked == 0 {
		t.Fatalf("scrub accounting: %+v", rep)
	}
}

func TestScrubHealsDivergentCopies(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSaveReplicated(t, dir, b, 2)

	// Damage both replicas, in different shards: a flipped primary entry
	// and a flipped secondary database copy. Each heals from the other side.
	primary, others := primaryArtifact(t, dir, entriesDir)
	flipByte(t, primary)
	dbMatches, err := filepath.Glob(filepath.Join(dir, replicasDir, "r1", shardsDir, "*", dbsDir, "*.json"))
	if err != nil || len(dbMatches) == 0 {
		t.Fatalf("no secondary database artifacts: %v", err)
	}
	flipByte(t, dbMatches[0])

	rep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escalated || rep.Lossy() {
		t.Fatalf("scrub escalated with a good copy of everything on disk: %+v", rep)
	}
	if len(rep.Repaired) != 2 {
		t.Fatalf("repaired %v, want exactly the two flipped copies", rep.Repaired)
	}
	if frep, err := st.Verify(); err != nil || !frep.OK() {
		t.Fatalf("verify after scrub: %+v, %v", frep, err)
	}
	// The healed copies are byte-identical to their replicas again.
	want, err := os.ReadFile(others[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("healed primary diverges from its replica")
	}

	// Idempotent: a second pass finds nothing.
	rep2, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("second scrub found work: %+v", rep2)
	}
}

func TestScrubAllCopiesBadEscalates(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSaveReplicated(t, dir, b, 2)
	primary, others := primaryArtifact(t, dir, entriesDir)
	flipByte(t, primary)
	for _, p := range others {
		flipByte(t, p)
	}

	// Repair salvages (dropping the doomed entry), and the scrub reports
	// the loss through the nested repair report.
	rep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Escalated || rep.Repair == nil || !rep.Lossy() {
		t.Fatalf("escalated scrub: %+v", rep)
	}
	if len(rep.Unrecoverable) != 1 {
		t.Fatalf("unrecoverable accounting: %+v", rep)
	}
	if rep.Repair.EntriesLost != 1 {
		t.Fatalf("escalated repair lost %d entries, want 1", rep.Repair.EntriesLost)
	}
	if frep, err := st.Verify(); err != nil || !frep.OK() {
		t.Fatalf("verify after escalated scrub: %+v, %v", frep, err)
	}
	// And the store converged: another pass is clean.
	rep2, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("scrub after escalated repair still finds work: %+v", rep2)
	}
}

func TestScrubMovesAsideLyingExtras(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, m := mustSaveReplicated(t, dir, b, 2)
	// A file whose name claims a content hash its bytes do not have, in a
	// secondary only: bit-rot at an address the manifest never references.
	shard := m.Shards[0].Name
	liar := filepath.Join(dir, replicasDir, "r1", shardsDir, shard, entriesDir, strings.Repeat("ab", 32)+".json")
	if err := os.WriteFile(liar, []byte(`{"not":"the hash"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedAside) != 1 || rep.Escalated {
		t.Fatalf("scrub of a lying extra: %+v", rep)
	}
	if _, err := os.Stat(liar); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("lying extra still in place: %v", err)
	}
	if frep, err := st.Verify(); err != nil || !frep.OK() {
		t.Fatalf("verify after scrub: %+v, %v", frep, err)
	}
}

func TestScrubSingleCopyDegeneratesToVerify(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSave(t, dir, b)
	rep, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Replicas != 1 || rep.ArtifactsChecked == 0 {
		t.Fatalf("single-copy scrub of a clean store: %+v", rep)
	}

	// With one copy there is nothing to heal from: corruption escalates
	// straight to Repair.
	flipByte(t, anyArtifact(t, dir, entriesDir))
	rep2, err := st.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Escalated || rep2.Repair == nil || !rep2.Lossy() {
		t.Fatalf("single-copy scrub of a corrupt store: %+v", rep2)
	}
	if frep, err := st.Verify(); err != nil || !frep.OK() {
		t.Fatalf("verify after single-copy escalation: %+v, %v", frep, err)
	}
}

func TestScrubHonorsContext(t *testing.T) {
	_, b := testBench(t)
	st, _ := mustSaveReplicated(t, t.TempDir(), b, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Scrub(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("scrub under a cancelled context: %v", err)
	}
}

// TestRunScrubberDeterministic drives the background scrubber with a
// hand-fed tick channel: every tick is one cycle, closing the channel
// stops it — no wall clock anywhere.
func TestRunScrubberDeterministic(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSaveReplicated(t, dir, b, 2)
	primary, _ := primaryArtifact(t, dir, entriesDir)
	flipByte(t, primary)

	ticks := make(chan time.Time)
	reports := make(chan *ScrubReport, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.RunScrubber(context.Background(), ticks, func(rep *ScrubReport, err error) {
			if err != nil {
				t.Errorf("scrub cycle: %v", err)
			}
			reports <- rep
		})
	}()
	ticks <- time.Time{}
	first := <-reports
	if len(first.Repaired) != 1 {
		t.Fatalf("first cycle repaired %v, want the flipped copy", first.Repaired)
	}
	ticks <- time.Time{}
	second := <-reports
	if !second.Clean() {
		t.Fatalf("second cycle found work: %+v", second)
	}
	close(ticks)
	wg.Wait()
	if frep, err := st.Verify(); err != nil || !frep.OK() {
		t.Fatalf("verify after background scrubbing: %+v, %v", frep, err)
	}
}

// TestChaosScrubSite injects errors into the scrubber's own reads and
// writes over a perfectly healthy store: whatever the outcome, the store's
// content must be untouched — a scrub misled by injected read errors may
// escalate, but escalation over a healthy store is lossless.
func TestChaosScrubSite(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, _ := mustSaveReplicated(t, dir, b, 2)
	want := bench.Digest(b)

	for _, rate := range []float64{0.3, 1} {
		restore := fault.Activate(fault.NewPlan(13).Add(
			fault.Rule{Site: fault.SiteReplicaScrub, Kind: fault.KindError, Rate: rate}))
		rep, err := st.Scrub(context.Background())
		restore()
		if err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("rate %v: organic scrub error: %v", rate, err)
		}
		if err == nil && rep.Lossy() {
			t.Fatalf("rate %v: chaos scrub of a healthy store reported loss: %+v", rate, rep)
		}
		if frep, verr := st.Verify(); verr != nil || !frep.OK() {
			t.Fatalf("rate %v: store damaged by chaos scrub: %+v, %v", rate, frep, verr)
		}
		loaded, _, lerr := st.Load()
		if lerr != nil {
			t.Fatalf("rate %v: load after chaos scrub: %v", rate, lerr)
		}
		if bench.Digest(loaded) != want {
			t.Fatalf("rate %v: benchmark diverged under chaos scrub", rate)
		}
	}
}

// scrubFuzzTemplate lazily builds one pristine 2-replica store the fuzz
// target clones per execution (the tiny crash corpus keeps the copy cheap).
var (
	scrubFuzzOnce sync.Once
	scrubFuzzDir  string
	scrubFuzzErr  error
)

func scrubFuzzStore(tb testing.TB) string {
	scrubFuzzOnce.Do(func() {
		_, b := tinyBuild(tb)
		dir, err := os.MkdirTemp("", "scrubfuzz")
		if err != nil {
			scrubFuzzErr = err
			return
		}
		st, err := Open(dir)
		if err != nil {
			scrubFuzzErr = err
			return
		}
		if err := st.SetReplicas(2); err != nil {
			scrubFuzzErr = err
			return
		}
		if _, err := st.Save(b, tinyInfo()); err != nil {
			scrubFuzzErr = err
			return
		}
		scrubFuzzDir = dir
	})
	if scrubFuzzErr != nil {
		tb.Fatal(scrubFuzzErr)
	}
	return scrubFuzzDir
}

// copyTree clones the template store into a fresh directory.
func copyTree(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// FuzzScrubResolve writes arbitrary bytes over one replica's copy of one
// integrity-bearing artifact and requires the scrubber to converge: with
// the other copy intact, the store must come back verifying with zero
// findings and byte-identical replicas, without escalating and without
// ever keeping a non-verifying copy. A second pass must be a no-op.
func FuzzScrubResolve(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte("{"), uint8(1), uint8(3))
	f.Add([]byte(`{"format_version":2}`), uint8(0), uint8(200))
	f.Add([]byte(strings.Repeat("x", 4096)), uint8(1), uint8(77))
	f.Fuzz(func(t *testing.T, junk []byte, whichReplica, whichArtifact uint8) {
		template := scrubFuzzStore(t)
		dir := t.TempDir()
		copyTree(t, template, dir)

		// The corruptible set: every hash-checked artifact of one replica
		// (shard manifests, sums, entries, databases — not journals, whose
		// divergence has its own resolution rule and test).
		r := int(whichReplica) % 2
		var candidates []string
		for _, pat := range []string{
			filepath.Join(shardsDir, "*", manifestName),
			filepath.Join(shardsDir, "*", manifestSumName),
			filepath.Join(shardsDir, "*", entriesDir, "*.json"),
			filepath.Join(shardsDir, "*", dbsDir, "*.json"),
		} {
			m, err := filepath.Glob(filepath.Join(dir, replicasDir, replicaName(r), pat))
			if err != nil {
				t.Fatal(err)
			}
			candidates = append(candidates, m...)
		}
		if len(candidates) == 0 {
			t.Fatal("template store has no artifacts")
		}
		victim := candidates[int(whichArtifact)%len(candidates)]
		original, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victim, junk, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err := OpenReplicated(dir)
		if err != nil {
			t.Fatalf("open with one mutated copy: %v", err)
		}
		rep, err := st.Scrub(context.Background())
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if rep.Lossy() {
			t.Fatalf("scrub reported loss with an intact copy on disk: %+v", rep)
		}
		// Converged to the manifest-hash copy: the victim's bytes are the
		// original ones again (a junk payload that happens to equal the
		// original is the identity case).
		healed, err := os.ReadFile(victim)
		if err != nil {
			t.Fatalf("victim missing after scrub: %v", err)
		}
		if string(healed) != string(original) {
			t.Fatalf("scrub converged to non-manifest bytes at %s", victim)
		}
		if frep, err := st.Verify(); err != nil || !frep.OK() {
			t.Fatalf("store does not verify after scrub: %+v, %v", frep, err)
		}
		rep2, err := st.Scrub(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep2.Clean() {
			t.Fatalf("scrub is not idempotent: %+v", rep2)
		}
	})
}
