// Replicated-store CLI tests: the -replicas/-scrub/-scrub-interval flags,
// the acceptance chaos (primary read faults must not change a single
// response byte), /readyz failover reporting, and the exit-code contract
// of the store health verbs across the flat, sharded and replicated
// layouts.

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// flipFile corrupts one byte of a file in place.
func flipFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replicaGlob returns the matches of a glob under one replica's tree.
func replicaGlob(t *testing.T, dir, replica, pattern string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "replicas", replica, pattern))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no matches for %s under replica %s: %v", pattern, replica, err)
	}
	return matches
}

// TestReplicatedStoreEndToEnd is the acceptance run: save with -replicas 2,
// then require byte-identical exports (a) unfaulted, (b) with the
// store.replica.read site failing primary reads at 5% and at 100%, and
// (c) with the primary copy corrupted on disk — then -scrub heals the
// primary so -fsck passes over every replica with zero findings.
func TestReplicatedStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out, err := runCLI(t, append(smallBuild, "-store", dir, "-save", "-replicas", "2")...)
	if err != nil {
		t.Fatalf("replicated save: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "replicas", "r1")); err != nil {
		t.Fatalf("no second replica on disk: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shards")); !os.IsNotExist(err) {
		t.Fatalf("replicated store kept a root shards/ tree: %v", err)
	}

	export := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		args := append(extra, "-store", dir, "-out", path)
		if out, err := runCLI(t, args...); err != nil {
			t.Fatalf("export %s (%v): %v\n%s", name, extra, err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	baseline := export("base.json")
	if string(export("f5.json", "-faults", "store.replica.read:error:0.05", "-fault-seed", "3")) != string(baseline) {
		t.Fatal("export under 5% primary read faults diverged from the unfaulted run")
	}
	if string(export("f100.json", "-faults", "store.replica.read:error:1")) != string(baseline) {
		t.Fatal("export under certain primary read faults diverged from the unfaulted run")
	}

	// On-disk primary damage: the load fails over and says so.
	flipFile(t, replicaGlob(t, dir, "r0", filepath.Join("shards", "*", "MANIFEST.json"))[0])
	path := filepath.Join(t.TempDir(), "damaged.json")
	out, err = runCLI(t, "-store", dir, "-out", path)
	if err != nil {
		t.Fatalf("load with corrupt primary: %v\n%s", err, out)
	}
	if !strings.Contains(out, "failed over") {
		t.Fatalf("load transcript does not report the failover:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(baseline) {
		t.Fatal("export with corrupt primary diverged from the unfaulted run")
	}

	// -scrub heals the primary from the replica and exits zero.
	out, err = runCLI(t, "-store", dir, "-scrub")
	if err != nil {
		t.Fatalf("scrub: %v\n%s", err, out)
	}
	if !strings.Contains(out, "repaired 1") {
		t.Fatalf("scrub transcript does not account for the heal:\n%s", out)
	}
	// Every replica verifies with zero findings, and a second scrub is a
	// no-op.
	if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil || !strings.Contains(out, "fsck: 0 of ") {
		t.Fatalf("fsck after scrub: %v\n%s", err, out)
	}
	out, err = runCLI(t, "-store", dir, "-scrub")
	if err != nil || !strings.Contains(out, "scrub: clean") {
		t.Fatalf("second scrub: %v\n%s", err, out)
	}
	if string(export("healed.json")) != string(baseline) {
		t.Fatal("export after scrub diverged from the unfaulted run")
	}
}

// TestReadyzReportsFailover serves a replicated store whose primary copy
// of one shard is corrupt and checks /readyz names the failed-over shard
// and the per-replica health, then heals with -scrub and checks the same
// serve reports ready.
func TestReadyzReportsFailover(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save", "-replicas", "2")...); err != nil {
		t.Fatalf("replicated save: %v\n%s", err, out)
	}
	flipFile(t, replicaGlob(t, dir, "r0", filepath.Join("shards", "*", "MANIFEST.json"))[0])

	body := readyzOf(t, dir, "127.0.0.1:39425")
	for _, want := range []string{"degraded:", "failed over:", "run -scrub to heal", "replica r0:", "shard copies failed self-check", "replica r1: healthy"} {
		if !strings.Contains(body, want) {
			t.Errorf("/readyz missing %q:\n%s", want, body)
		}
	}

	if out, err := runCLI(t, "-store", dir, "-scrub"); err != nil {
		t.Fatalf("scrub: %v\n%s", err, out)
	}
	if body := readyzOf(t, dir, "127.0.0.1:39426"); body != "ready\n" {
		t.Fatalf("/readyz after scrub = %q, want ready", body)
	}
}

// readyzOf serves the store briefly and returns the /readyz body.
func readyzOf(t *testing.T, dir, addr string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, []string{"-store", dir, "-serve", addr}, &out)
	}()
	var body []byte
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	return string(body)
}

// TestScrubIntervalHealsWhileServing serves a replicated store with a
// damaged secondary under -scrub-interval and waits for the background
// scrubber to heal the bytes on disk and flip /readyz back to ready.
func TestScrubIntervalHealsWhileServing(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save", "-replicas", "2")...); err != nil {
		t.Fatalf("replicated save: %v\n%s", err, out)
	}
	victim := replicaGlob(t, dir, "r1", filepath.Join("shards", "*", "MANIFEST.json"))[0]
	want, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	flipFile(t, victim)

	addr := "127.0.0.1:39427"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, []string{"-store", dir, "-serve", addr, "-scrub-interval", "100ms"}, &out)
	}()

	deadline := time.Now().Add(20 * time.Second)
	healed, ready := false, false
	for time.Now().Before(deadline) && !(healed && ready) {
		if got, err := os.ReadFile(victim); err == nil && string(got) == string(want) {
			healed = true
		}
		if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) == "ready\n" {
				ready = true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	if !healed {
		t.Fatal("background scrubber never healed the damaged secondary")
	}
	if !ready {
		t.Fatal("/readyz never returned to ready after the background scrub")
	}
	if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
		t.Fatalf("fsck after background scrubbing: %v\n%s", err, out)
	}
}

// TestScrubIntervalAfterSaveBuild covers the build path: a run that
// builds, saves and serves scrubs the store it just saved.
func TestScrubIntervalAfterSaveBuild(t *testing.T) {
	dir := t.TempDir()
	addr := "127.0.0.1:39428"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out strings.Builder
		done <- run(ctx, append(smallBuild, "-store", dir, "-save", "-replicas", "2", "-serve", addr, "-scrub-interval", "100ms"), &out)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	victim := replicaGlob(t, dir, "r1", filepath.Join("shards", "*", "MANIFEST.json"))[0]
	want, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	flipFile(t, victim)

	healed := false
	for deadline = time.Now().Add(20 * time.Second); time.Now().Before(deadline) && !healed; time.Sleep(50 * time.Millisecond) {
		got, err := os.ReadFile(victim)
		healed = err == nil && string(got) == string(want)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	if !healed {
		t.Fatal("background scrubber never healed the store the run saved")
	}
}

// writeLegacyFixture hand-builds a minimal format-1 flat store (empty
// benchmark): a format-1 manifest, its sum, and a committed journal.
func writeLegacyFixture(t *testing.T, dir string) {
	t.Helper()
	manifest := []byte("{\n  \"format_version\": 1,\n  \"build\": {},\n  \"databases\": [],\n  \"entries\": []\n}\n")
	sum := sha256.Sum256(manifest)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.sha256"), []byte(hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var journal strings.Builder
	for _, rec := range []map[string]any{{"op": "begin"}, {"op": "commit"}} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		line := sha256.Sum256(payload)
		fmt.Fprintf(&journal, "%s %s\n", hex.EncodeToString(line[:]), payload)
	}
	if err := os.WriteFile(filepath.Join(dir, "JOURNAL.jsonl"), []byte(journal.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHealthVerbExitCodeParity pins the exit-code contract of -fsck,
// -repair and -scrub on both layouts: -fsck fails iff corrupt, -repair
// fails iff content was lost, -scrub fails iff an artifact was
// unrecoverable in every replica. A format-1 store fails all three with
// the rebuild error.
func TestHealthVerbExitCodeParity(t *testing.T) {
	t.Run("legacy flat", func(t *testing.T) {
		dir := t.TempDir()
		writeLegacyFixture(t, dir)
		for _, verb := range []string{"-fsck", "-repair", "-scrub"} {
			out, err := runCLI(t, "-store", dir, verb)
			if err == nil || !strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "-save") {
				t.Fatalf("%s of a format-1 store: err = %v, want the format 1 rebuild error\n%s", verb, err, out)
			}
		}
	})

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
			t.Fatalf("save: %v\n%s", err, out)
		}
		// Clean: every verb exits zero.
		for _, verb := range []string{"-fsck", "-scrub", "-repair"} {
			if out, err := runCLI(t, "-store", dir, verb); err != nil {
				t.Fatalf("%s of a clean sharded store: %v\n%s", verb, err, out)
			}
		}
		// Corrupt entry, single copy: fsck fails, scrub escalates to a
		// lossy repair and fails, and the store is consistent afterwards.
		flipEntryByte(t, dir)
		if out, err := runCLI(t, "-store", dir, "-fsck"); err == nil {
			t.Fatalf("fsck of a corrupt store exited zero:\n%s", out)
		}
		out, err := runCLI(t, "-store", dir, "-scrub")
		if err == nil || !strings.Contains(err.Error(), "recover") {
			t.Fatalf("scrub of unrecoverable single-copy damage: err = %v\n%s", err, out)
		}
		if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
			t.Fatalf("fsck after escalated scrub: %v\n%s", err, out)
		}
	})

	t.Run("replicated", func(t *testing.T) {
		dir := t.TempDir()
		if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save", "-replicas", "2")...); err != nil {
			t.Fatalf("save: %v\n%s", err, out)
		}
		// The same damage that is fatal single-copy is recoverable here:
		// fsck still fails (corruption is corruption), but scrub heals from
		// the intact replica and exits zero.
		flipFile(t, replicaGlob(t, dir, "r0", filepath.Join("shards", "*", "entries", "*.json"))[0])
		if out, err := runCLI(t, "-store", dir, "-fsck"); err == nil {
			t.Fatalf("fsck of a corrupt replicated store exited zero:\n%s", out)
		}
		if out, err := runCLI(t, "-store", dir, "-scrub"); err != nil {
			t.Fatalf("scrub with an intact replica: %v\n%s", err, out)
		}
		if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
			t.Fatalf("fsck after scrub: %v\n%s", err, out)
		}
		// Damage beyond any replica's help: scrub escalates, loses the
		// entry, and exits non-zero — same contract as single-copy.
		for _, r := range []string{"r0", "r1"} {
			flipFile(t, replicaGlob(t, dir, r, filepath.Join("shards", "*", "entries", "*.json"))[0])
		}
		if out, err := runCLI(t, "-store", dir, "-scrub"); err == nil {
			t.Fatalf("scrub of damage in every replica exited zero:\n%s", out)
		}
		if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
			t.Fatalf("fsck after lossy scrub: %v\n%s", err, out)
		}
	})
}

func TestReplicaFlagValidation(t *testing.T) {
	for _, args := range [][]string{{"-scrub"}, append(smallBuild, "-scrub-interval", "1s")} {
		if out, err := runCLI(t, args...); err == nil || !strings.Contains(err.Error(), "-store") {
			t.Fatalf("%v without -store: err = %v\n%s", args, err, out)
		}
	}
	if out, err := runCLI(t, append(smallBuild, "-store", t.TempDir(), "-save", "-replicas", "9")...); err == nil {
		t.Fatalf("-replicas 9 accepted:\n%s", out)
	}
}
