package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives the full CLI in-process.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	return buf.String(), err
}

var smallBuild = []string{"-dbs", "3", "-pairs", "5", "-seed", "2"}

func TestStoreSaveLoadFsckFlow(t *testing.T) {
	dir := t.TempDir()

	// Build and save.
	out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...)
	if err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "saved ") || !strings.Contains(out, dir) {
		t.Fatalf("save run output missing save line:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatalf("no manifest written: %v", err)
	}

	// A clean store passes fsck.
	out, err = runCLI(t, "-store", dir, "-fsck")
	if err != nil {
		t.Fatalf("fsck of clean store: %v\n%s", err, out)
	}
	if !strings.Contains(out, "fsck: 0 of ") {
		t.Fatalf("fsck output:\n%s", out)
	}

	// Load mode reconstructs the benchmark without synthesizing.
	out, err = runCLI(t, "-store", dir)
	if err != nil {
		t.Fatalf("load run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "loaded store") || !strings.Contains(out, "Table 3") {
		t.Fatalf("load run output:\n%s", out)
	}
	if strings.Contains(out, "synthesized benchmark") {
		t.Fatalf("load mode ran a build:\n%s", out)
	}

	// Flip one byte in one entry artifact: fsck reports it and fails.
	flipEntryByte(t, dir)
	out, err = runCLI(t, "-store", dir, "-fsck")
	if err == nil {
		t.Fatalf("fsck of corrupt store succeeded:\n%s", out)
	}
	if !strings.Contains(out, "fsck: 1 of ") || !strings.Contains(out, "does not match address") {
		t.Fatalf("fsck corruption report:\n%s", out)
	}

	// Load mode degrades with a clear error, not a panic.
	if out, err = runCLI(t, "-store", dir); err == nil {
		t.Fatalf("load of corrupt store succeeded:\n%s", out)
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("load error does not name corruption: %v", err)
	}
}

// benchSection strips the run-stats line and the wall-clock timing table
// from a CLI transcript.
func benchSection(out string) string {
	var keep []string
	for _, line := range strings.Split(stripTimings(out), "\n") {
		if strings.HasPrefix(line, "run stats:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// flipEntryByte corrupts one stored entry artifact in place; entries live
// inside shard directories (shards/NN/entries/).
func flipEntryByte(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "shards", "*", "entries", "*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no entry artifacts: %v", err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRepairCLIHealsLosslessDamage(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}
	// Tear the root MANIFEST.sha256: damage Load rejects but repair heals
	// without losing any benchmark content, since the sum is a pure
	// function of the intact manifest.
	sumPath := filepath.Join(dir, "MANIFEST.sha256")
	data, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sumPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "-store", dir); err == nil {
		t.Fatalf("load accepted a torn manifest sum:\n%s", out)
	}
	// Lossless salvage: -repair exits zero and continues into load mode.
	out, err := runCLI(t, "-store", dir, "-repair")
	if err != nil {
		t.Fatalf("lossless repair must exit zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "lost 0 entries / 0 databases") {
		t.Fatalf("repair report does not say the heal was lossless:\n%s", out)
	}
	if !strings.Contains(out, "loaded store") {
		t.Fatalf("repair run did not load the healed store:\n%s", out)
	}
	if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
		t.Fatalf("fsck after repair: %v\n%s", err, out)
	}
}

func TestRepairCLILossySalvageExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	if out, err := runCLI(t, append(smallBuild, "-store", dir, "-save")...); err != nil {
		t.Fatalf("save run: %v\n%s", err, out)
	}
	flipEntryByte(t, dir)
	out, err := runCLI(t, "-store", dir, "-repair")
	if err == nil {
		t.Fatalf("lossy repair exited zero:\n%s", out)
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("lossy repair error does not state the loss: %v", err)
	}
	if !strings.Contains(out, "lost 1 entries") {
		t.Fatalf("repair report does not account for the loss:\n%s", out)
	}
	// The salvage itself is real: the store now verifies and loads.
	if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
		t.Fatalf("fsck after lossy repair: %v\n%s", err, out)
	}
	out, err = runCLI(t, "-store", dir)
	if err != nil {
		t.Fatalf("load after lossy repair: %v\n%s", err, out)
	}
	if !strings.Contains(out, "loaded store") {
		t.Fatalf("load output:\n%s", out)
	}
}

// TestResumeCLIRecoversInterruptedSave drives the full resume story: a
// first -resume run on an empty store (verification fails, repair is a
// near-noop, the build saves), index loss simulating a crash before the
// manifest landed, then a second -resume run that heals the store and
// rebuilds it — the identical benchmark.
func TestResumeCLIRecoversInterruptedSave(t *testing.T) {
	dir := t.TempDir()
	args := append(smallBuild, "-store", dir, "-resume")
	out1, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("first resume run: %v\n%s", err, out1)
	}

	// Crash-shaped damage: the save's artifacts and journal survive but the
	// index never landed.
	for _, name := range []string{"MANIFEST.json", "MANIFEST.sha256"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	out2, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("resume after index loss: %v\n%s", err, out2)
	}
	if !strings.Contains(out2, "manifest rebuilt") {
		t.Fatalf("resume did not report the manifest rebuild:\n%s", out2)
	}
	// The resumed benchmark is the one the interrupted run was building.
	if tail(t, out1) != tail(t, out2) {
		t.Fatalf("resumed benchmark diverged:\ncold:\n%s\nresumed:\n%s", out1, out2)
	}
	if out, err := runCLI(t, "-store", dir, "-fsck"); err != nil {
		t.Fatalf("fsck after resume: %v\n%s", err, out)
	}

	// A clean store needs no healing: one more -resume just builds and
	// saves.
	out3, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("resume of clean store: %v\n%s", err, out3)
	}
	if strings.Contains(out3, "repair:") {
		t.Fatalf("resume repaired a clean store:\n%s", out3)
	}
}

// tail cuts a CLI transcript down to the benchmark section (everything
// from synthesis on), minus the run-stats line — the part that must be
// identical between an uninterrupted and a resumed build.
func tail(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "synthesized benchmark:")
	if i < 0 {
		t.Fatalf("no benchmark section in output:\n%s", out)
	}
	return benchSection(out[i:])
}

func TestStoreFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-save"},
		{"-fsck"},
		{"-repair"},
		{"-scrub"},
		{"-resume"},
	} {
		if out, err := runCLI(t, args...); err == nil || !strings.Contains(err.Error(), "-store") {
			t.Errorf("%v: err = %v\n%s", args, err, out)
		}
	}
}
