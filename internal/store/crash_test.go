// The crash harness: these tests re-exec the test binary as a child that
// runs a save (or a full build followed by a save) under a deterministic
// crash plan, aborting the whole process at injected crash point K. The
// parent sweeps K upward until the child survives, so every write call at
// the swept site (the shard saves, the root merge) gets killed exactly
// once — and after every kill the store must either verify cleanly or
// repair to a state that verifies and loads. The build sweep goes
// further: it resumes the interrupted build the way -resume does (repair
// if needed, build, save) and requires a store byte-identical to an
// uninterrupted build's.

package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nvbench/internal/ast"
	"nvbench/internal/bench"
	"nvbench/internal/core"
	"nvbench/internal/fault"
	"nvbench/internal/nledit"
	"nvbench/internal/spider"
)

// The environment contract between sweep parents and re-exec'd children.
const (
	crashEnvDir      = "NVBENCH_CRASH_DIR"      // store directory to damage
	crashEnvGolden   = "NVBENCH_CRASH_GOLDEN"   // golden store to load and re-save
	crashEnvPlan     = "NVBENCH_CRASH_PLAN"     // fault plan, crash point included
	crashEnvResave   = "NVBENCH_CRASH_RESAVE"   // save cleanly once before the faulty save
	crashEnvReplicas = "NVBENCH_CRASH_REPLICAS" // replica count for the child's store
	crashEnvShards   = "NVBENCH_CRASH_SHARDS"   // shard count for the child's store
)

// crashSweepLimit bounds a sweep; a tiny save has far fewer write calls.
const crashSweepLimit = 400

// crashBuildCfg is the deliberately tiny corpus the crash children build:
// small enough that re-execing one child per crash point stays cheap.
var crashBuildCfg = spider.Config{Seed: 3, NumDatabases: 1, PairsPerDB: 4, MaxRows: 60}

// crashBuildOpts is the matching build configuration: classifier-free (no
// per-process training), single-variant, one worker, so each child builds
// it cheaply.
func crashBuildOpts() bench.Options {
	return bench.Options{
		Synth: &core.Synthesizer{
			NumBins:       ast.DefaultNumBins,
			MaxCandidates: 16,
			Aggregates:    []ast.AggFunc{ast.AggSum},
		},
		Edit:          nledit.New(1),
		MaxVisPerPair: 2,
		Workers:       1,
	}
}

var (
	tinyOnce  sync.Once
	tinyCorp  *spider.Corpus
	tinyBench *bench.Benchmark
)

// tinyBuild builds the crash corpus and its benchmark once.
func tinyBuild(t testing.TB) (*spider.Corpus, *bench.Benchmark) {
	t.Helper()
	tinyOnce.Do(func() {
		c, err := spider.Generate(crashBuildCfg)
		if err != nil {
			panic(err)
		}
		b, err := bench.Build(c, crashBuildOpts())
		if err != nil {
			panic(err)
		}
		tinyCorp, tinyBench = c, b
	})
	if len(tinyBench.Entries) == 0 {
		t.Fatal("crash-harness benchmark is empty")
	}
	return tinyCorp, tinyBench
}

func tinyInfo() BuildInfo {
	return BuildInfo{Seed: crashBuildCfg.Seed, Fingerprint: Fingerprint(crashBuildOpts())}
}

// runCrashChild re-execs the test binary running only the named child test
// with env overlaid, returning its exit code and combined output.
func runCrashChild(t *testing.T, name string, env map[string]string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$")
	cmd.Env = os.Environ()
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("re-exec %s: %v", name, err)
	return -1, ""
}

// assertRecoverable opens a store a child crashed at point k and requires
// it to verify cleanly as-is, or repair to a state that verifies and
// loads. wantEntries >= 0 additionally pins the post-recovery entry count
// (committed data must survive the crash in full).
func assertRecoverable(t *testing.T, dir string, k, wantEntries int) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("crash point %d: reopen: %v", k, err)
	}
	if rep, err := st.Verify(); err != nil || !rep.OK() {
		if _, err := st.Repair(); err != nil {
			t.Fatalf("crash point %d: repair: %v", k, err)
		}
		rep, err := st.Verify()
		if err != nil {
			t.Fatalf("crash point %d: verify after repair: %v", k, err)
		}
		if !rep.OK() {
			t.Fatalf("crash point %d: store still corrupt after repair: %+v", k, rep.Corrupt)
		}
	}
	loaded, _, err := st.Load()
	if err != nil {
		t.Fatalf("crash point %d: load after recovery: %v", k, err)
	}
	if wantEntries >= 0 && len(loaded.Entries) != wantEntries {
		t.Fatalf("crash point %d: recovered %d entries, want %d", k, len(loaded.Entries), wantEntries)
	}
}

// sweepSaveCrashes runs the child save at every crash point the plan
// format can reach, recovering the store after each kill. wantEntries
// pins the recovered entry count (-1: any consistent state).
func sweepSaveCrashes(t *testing.T, goldenDir, planFmt string, wantEntries int) {
	sweepSaveCrashesEnv(t, goldenDir, planFmt, wantEntries, nil)
}

// sweepSaveCrashesEnv is sweepSaveCrashes with extra child environment —
// how the replicated sweeps set the child's replica and shard counts.
func sweepSaveCrashesEnv(t *testing.T, goldenDir, planFmt string, wantEntries int, extra map[string]string) {
	crashed := 0
	for k := 1; ; k++ {
		if k > crashSweepLimit {
			t.Fatalf("crash sweep did not terminate after %d points", crashSweepLimit)
		}
		dir := filepath.Join(t.TempDir(), "store")
		env := map[string]string{
			crashEnvDir:    dir,
			crashEnvGolden: goldenDir,
			crashEnvPlan:   fmt.Sprintf(planFmt, k),
		}
		for ek, ev := range extra {
			env[ek] = ev
		}
		if wantEntries >= 0 {
			env[crashEnvResave] = "1"
		}
		code, out := runCrashChild(t, "TestCrashChildSave", env)
		if code != 0 && code != fault.CrashExitCode {
			t.Fatalf("crash point %d: child exited %d, want %d or success:\n%s",
				k, code, fault.CrashExitCode, out)
		}
		assertRecoverable(t, dir, k, wantEntries)
		if code == 0 {
			if crashed == 0 {
				t.Fatal("sweep ended before any crash fired")
			}
			t.Logf("sweep covered %d crash points", crashed)
			return
		}
		crashed++
	}
}

// TestCrashChildSave is the re-exec'd child: it loads the golden
// benchmark and saves it into a fresh directory under the given fault
// plan, dying wherever the plan says. A torn fault aborts the save with
// an error instead; that damaged state is the point. Without the
// environment (a normal test run) it is skipped.
func TestCrashChildSave(t *testing.T) {
	dir := os.Getenv(crashEnvDir)
	if dir == "" {
		t.Skip("crash-sweep child; driven by TestCrashSweepSave")
	}
	plan, err := fault.ParsePlan(os.Getenv(crashEnvPlan), 1)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Open(os.Getenv(crashEnvGolden))
	if err != nil {
		t.Fatal(err)
	}
	b, m, err := golden.Load()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v := os.Getenv(crashEnvShards); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SetShardCount(n); err != nil {
			t.Fatal(err)
		}
	}
	if v := os.Getenv(crashEnvReplicas); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SetReplicas(n); err != nil {
			t.Fatal(err)
		}
	}
	if os.Getenv(crashEnvResave) != "" {
		// Commit the benchmark first: the faulty save below is then an
		// idempotent re-save over committed data.
		if _, err := st.Save(b, m.Build); err != nil {
			t.Fatal(err)
		}
	}
	defer fault.Activate(plan)()
	if _, err := st.Save(b, m.Build); err != nil && !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("save failed organically: %v", err)
	}
}

func TestCrashSweepSave(t *testing.T) {
	_, b := tinyBuild(t)
	goldenDir := t.TempDir()
	goldenSt, err := Open(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := goldenSt.Save(b, tinyInfo()); err != nil {
		t.Fatal(err)
	}
	t.Run("fresh", func(t *testing.T) {
		// A fresh save killed anywhere inside the shard writes: any
		// consistent state is acceptable (no committed data to protect).
		sweepSaveCrashes(t, goldenDir, "store.shard.save:crash:%d", -1)
	})
	t.Run("merge", func(t *testing.T) {
		// Killed anywhere inside the root merge instead: the shards are
		// complete, the global index is in flight.
		sweepSaveCrashes(t, goldenDir, "store.shard.merge:crash:%d", -1)
	})
	t.Run("torn", func(t *testing.T) {
		// Torn writes compound the crash: prefixes of artifacts land at
		// their final paths before the process dies.
		sweepSaveCrashes(t, goldenDir, "store.shard.save:torn:0.4,store.shard.save:crash:%d", -1)
	})
	t.Run("torn merge", func(t *testing.T) {
		sweepSaveCrashes(t, goldenDir, "store.shard.merge:torn:0.4,store.shard.merge:crash:%d", -1)
	})
	t.Run("resave", func(t *testing.T) {
		// An idempotent re-save killed anywhere must never lose the
		// committed benchmark.
		sweepSaveCrashes(t, goldenDir, "store.shard.save:crash:%d", len(b.Entries))
	})
	t.Run("resave merge", func(t *testing.T) {
		sweepSaveCrashes(t, goldenDir, "store.shard.merge:crash:%d", len(b.Entries))
	})
}

// TestCrashChildBuild is the re-exec'd child for the resumable-build
// sweep: a full build followed by a save, dying at the planned crash
// point inside the save.
func TestCrashChildBuild(t *testing.T) {
	dir := os.Getenv(crashEnvDir)
	if dir == "" {
		t.Skip("crash-sweep child; driven by TestCrashSweepBuildResume")
	}
	plan, err := fault.ParsePlan(os.Getenv(crashEnvPlan), 1)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := spider.Generate(crashBuildCfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Activate(plan)()
	b, err := bench.Build(corpus, crashBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(b, tinyInfo()); err != nil && !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("save failed organically: %v", err)
	}
}

// resumeAndCheck does what cmd/nvbench -resume does to an interrupted
// build — repair if dirty, build, re-save — then requires byte-identical
// output to the uninterrupted reference.
func resumeAndCheck(t *testing.T, dir string, corpus *spider.Corpus, refTree map[string][]byte, k int) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("crash point %d: reopen: %v", k, err)
	}
	if rep, err := st.Verify(); err != nil || !rep.OK() {
		if _, err := st.Repair(); err != nil {
			t.Fatalf("crash point %d: repair: %v", k, err)
		}
	}
	b, err := bench.Build(corpus, crashBuildOpts())
	if err != nil {
		t.Fatalf("crash point %d: resumed build: %v", k, err)
	}
	if _, err := st.Save(b, tinyInfo()); err != nil {
		t.Fatalf("crash point %d: resumed save: %v", k, err)
	}
	// Byte-identical to the uninterrupted build, the whole tree, with only
	// lost+found aside: it preserves what repair moved.
	got := treeBytes(t, dir)
	for name := range got {
		if strings.HasPrefix(name, lostFoundDir+"/") {
			delete(got, name)
		}
	}
	sameTree(t, refTree, got)
}

func TestCrashSweepBuildResume(t *testing.T) {
	corpus, ref := tinyBuild(t)
	refDir := t.TempDir()
	refSt, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refSt.Save(ref, tinyInfo()); err != nil {
		t.Fatal(err)
	}
	refTree := treeBytes(t, refDir)

	crashed := 0
	for k := 1; ; k++ {
		if k > crashSweepLimit {
			t.Fatalf("crash sweep did not terminate after %d points", crashSweepLimit)
		}
		dir := filepath.Join(t.TempDir(), "store")
		code, out := runCrashChild(t, "TestCrashChildBuild", map[string]string{
			crashEnvDir:  dir,
			crashEnvPlan: fmt.Sprintf("store.shard.save:crash:%d", k),
		})
		if code != 0 && code != fault.CrashExitCode {
			t.Fatalf("crash point %d: child exited %d, want %d or success:\n%s",
				k, code, fault.CrashExitCode, out)
		}
		resumeAndCheck(t, dir, corpus, refTree, k)
		if code == 0 {
			if crashed == 0 {
				t.Fatal("sweep ended before any crash fired")
			}
			t.Logf("build sweep covered %d crash points", crashed)
			return
		}
		crashed++
	}
}

// TestCrashSweepReplicatedSave kills a 2-replica save at every secondary
// write (the store.replica.save site), fresh and as a re-save over
// committed data: after every kill the store must recover to a verifying,
// loadable state, and a re-save must never lose the committed benchmark —
// the primary copy commits before any secondary write begins.
func TestCrashSweepReplicatedSave(t *testing.T) {
	_, b := tinyBuild(t)
	goldenDir := t.TempDir()
	goldenSt, err := Open(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := goldenSt.Save(b, tinyInfo()); err != nil {
		t.Fatal(err)
	}
	env := map[string]string{crashEnvReplicas: "2", crashEnvShards: "4"}
	t.Run("fresh", func(t *testing.T) {
		sweepSaveCrashesEnv(t, goldenDir, "store.replica.save:crash:%d", -1, env)
	})
	t.Run("torn", func(t *testing.T) {
		sweepSaveCrashesEnv(t, goldenDir, "store.replica.save:torn:0.4,store.replica.save:crash:%d", -1, env)
	})
	t.Run("resave", func(t *testing.T) {
		sweepSaveCrashesEnv(t, goldenDir, "store.replica.save:crash:%d", len(b.Entries), env)
	})
}

// TestCrashChildScrub is the re-exec'd child for the scrub sweep: it opens
// a replicated store the parent damaged and scrubs it under a crash plan
// on the store.replica.scrub site, dying mid-heal wherever the plan says.
func TestCrashChildScrub(t *testing.T) {
	dir := os.Getenv(crashEnvDir)
	if dir == "" {
		t.Skip("crash-sweep child; driven by TestCrashSweepScrub")
	}
	plan, err := fault.ParsePlan(os.Getenv(crashEnvPlan), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Activate(plan)()
	if _, err := st.Scrub(context.Background()); err != nil && !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("scrub failed organically: %v", err)
	}
}

// TestCrashSweepScrub kills an anti-entropy pass over a store with one
// corrupt primary artifact at every scrub I/O. An interrupted heal must
// never make things worse: the store recovers (possibly via Repair, which
// heals cross-replica first) with every committed entry intact.
func TestCrashSweepScrub(t *testing.T) {
	_, b := tinyBuild(t)
	crashed := 0
	for k := 1; ; k++ {
		if k > crashSweepLimit {
			t.Fatalf("crash sweep did not terminate after %d points", crashSweepLimit)
		}
		dir := filepath.Join(t.TempDir(), "store")
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SetShardCount(4); err != nil {
			t.Fatal(err)
		}
		if err := st.SetReplicas(2); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Save(b, tinyInfo()); err != nil {
			t.Fatal(err)
		}
		primary, _ := primaryArtifact(t, dir, entriesDir)
		flipByte(t, primary)
		code, out := runCrashChild(t, "TestCrashChildScrub", map[string]string{
			crashEnvDir:  dir,
			crashEnvPlan: fmt.Sprintf("store.replica.scrub:crash:%d", k),
		})
		if code != 0 && code != fault.CrashExitCode {
			t.Fatalf("crash point %d: child exited %d, want %d or success:\n%s",
				k, code, fault.CrashExitCode, out)
		}
		assertRecoverable(t, dir, k, len(b.Entries))
		if code == 0 {
			if crashed == 0 {
				t.Fatal("sweep ended before any crash fired")
			}
			t.Logf("scrub sweep covered %d crash points", crashed)
			return
		}
		crashed++
	}
}
