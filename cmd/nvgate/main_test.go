package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// cannedStore is `go test -bench` output as the store section sees it:
// headers, GOMAXPROCS suffixes, a -benchmem row, a log line and the
// trailing PASS/ok lines.
const cannedStore = `goos: linux
goarch: amd64
pkg: nvbench/internal/store
cpu: Intel(R) Xeon(R) Processor
BenchmarkStoreRebuild/cold-2         	       1	  92815480 ns/op	 1048576 B/op	    2048 allocs/op
BenchmarkShardedRebuild/monolithic-cold-2         	       1	 685812857 ns/op
BenchmarkShardedRebuild/sharded-cold-2            	       1	 428574561 ns/op
BenchmarkReplicatedSave/single       	       1	 321227862 ns/op
    rebuild_bench_test.go:150: BenchmarkReplicatedSave/double-2 1 2 ns/op
BenchmarkReplicatedSave/double-2     	       1	 725113730 ns/op
BenchmarkScrubClean-16                	       1	  33255951 ns/op
BenchmarkVerifyClean-2                	       1	  30172944 ns/op
BenchmarkStoreSaveLoad/save-2        	       1	 388049040.5 ns/op
PASS
ok  	nvbench/internal/store	12.345s
`

func TestParseBench(t *testing.T) {
	want := []metric{
		{"BenchmarkStoreRebuild/cold", "92815480"},
		{"BenchmarkShardedRebuild/monolithic-cold", "685812857"},
		{"BenchmarkShardedRebuild/sharded-cold", "428574561"},
		{"BenchmarkReplicatedSave/single", "321227862"},
		{"BenchmarkReplicatedSave/double", "725113730"},
		{"BenchmarkScrubClean", "33255951"},
		{"BenchmarkVerifyClean", "30172944"},
		{"BenchmarkStoreSaveLoad/save", "388049040.5"},
	}
	if got := parseBench(cannedStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench =\n%v\nwant\n%v", got, want)
	}
	// b.ReportMetric columns become keys of their own; -benchmem's do not.
	const reported = "BenchmarkBuildInstrumentation-2 \t 160\t 8195899 ns/op\t 4056248 bare-ns/build\t 4126775 events-ns/build\t 1024 B/op\t 9 allocs/op\n"
	want = []metric{
		{"BenchmarkBuildInstrumentation", "8195899"},
		{"BenchmarkBuildInstrumentation bare-ns/build", "4056248"},
		{"BenchmarkBuildInstrumentation events-ns/build", "4126775"},
	}
	if got := parseBench(reported); !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench(%q) =\n%v\nwant\n%v", reported, got, want)
	}
	if got := parseBench("PASS\nok  \tnvbench\t0.1s\nBenchmarkX-2\nBenchmarkY-2 1 NaN ns/op\n"); got != nil {
		t.Fatalf("non-result lines parsed as %v", got)
	}
}

// TestGateTable pins every gate's bound: a changed bound must show up here.
func TestGateTable(t *testing.T) {
	want := map[string][]gate{
		"root": nil,
		"store": {
			{"BenchmarkShardedRebuild/sharded-cold", 1, "BenchmarkShardedRebuild/monolithic-cold", 1},
			{"BenchmarkReplicatedSave/double", 1, "BenchmarkReplicatedSave/single", 2.5},
			{"BenchmarkScrubClean", 1, "BenchmarkStoreRebuild/cold", 1},
		},
		"obs": {{"build_overhead_pct", 1, "", 5}},
		"vql": {{"BenchmarkVQLIndexed", 1, "BenchmarkVQLScan", 1}},
	}
	got := map[string][]gate{}
	for _, s := range sections {
		got[s.name] = s.gates
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gate table =\n%v\nwant\n%v", got, want)
	}
	if sections[0].name != "root" || sections[0].out != "" {
		t.Fatalf("first section = %+v, want the unrecorded root run", sections[0])
	}
	for _, s := range sections {
		if want := map[string]int{"store": 5, "obs": 5}[s.name]; s.count != want {
			t.Errorf("%s: count = %d, want %d", s.name, s.count, want)
		}
	}
}

// TestGateBoundaries checks each gate fails exactly at its bound and
// passes just below it.
func TestGateBoundaries(t *testing.T) {
	const rhs = 120.0 // divisible by every scale, so the edge is exact
	for _, s := range sections {
		for _, g := range s.gates {
			r, vals := 1.0, map[string]string{}
			if g.rhs != "" {
				r = rhs
				vals[g.rhs] = strconv.FormatFloat(rhs, 'f', -1, 64)
			}
			edge := g.bound * r / g.scale
			for _, c := range []struct {
				lhs  float64
				pass bool
			}{{edge, false}, {edge - 0.01, true}, {edge + 0.01, false}} {
				vals[g.lhs] = strconv.FormatFloat(c.lhs, 'f', -1, 64)
				v, err := g.check(vals)
				if err != nil {
					t.Fatalf("%s %s: %v", s.name, g.lhs, err)
				}
				if v.pass != c.pass {
					t.Errorf("%s: %s = %s against %v: pass = %v, want %v", s.name, g.lhs, vals[g.lhs], vals, v.pass, c.pass)
				}
			}
		}
	}
}

func TestMissingKeyIsError(t *testing.T) {
	g := gate{"BenchmarkVQLIndexed", 1, "BenchmarkVQLScan", 1}
	for _, vals := range []map[string]string{
		{"BenchmarkVQLScan": "81325"},
		{"BenchmarkVQLIndexed": "12349"},
		{},
	} {
		if _, err := g.check(vals); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("check(%v) err = %v, want a missing-key error", vals, err)
		}
	}
	// A benchmark that vanished from the output fails the section, and
	// so does a derived key whose inputs are gone.
	for _, name := range []string{"vql", "obs"} {
		s := sectionNamed(t, name)
		s.retry = false
		none := func(section) ([]metric, error) { return nil, nil }
		if _, err := s.run(io.Discard, t.TempDir(), none); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("%s with no measurements: err = %v, want a missing-key error", name, err)
		}
	}
}

// TestRetryRule runs every recorded section on canned measurements that
// fail its gates first and pass them second: store, obs and vql retry
// once and pass, and a section without retry stops at the first failure.
func TestRetryRule(t *testing.T) {
	canned := map[string][2][]metric{
		"store": {
			parseBench(strings.Replace(cannedStore, "33255951", "92815480", 1)), // scrub == cold rebuild
			parseBench(cannedStore),
		},
		"obs": {
			{{"BenchmarkBuildInstrumentation bare-ns/build", "100"}, {"BenchmarkBuildInstrumentation events-ns/build", "105"}},
			{{"BenchmarkBuildInstrumentation bare-ns/build", "100"}, {"BenchmarkBuildInstrumentation events-ns/build", "104.99"}},
		},
		"vql": {
			{{"BenchmarkVQLScan", "12349"}, {"BenchmarkVQLIndexed", "12349"}},
			{{"BenchmarkVQLScan", "81325"}, {"BenchmarkVQLIndexed", "12349"}},
		},
	}
	wantRetry := map[string]bool{"store": true, "obs": true, "vql": true}
	check := func(s section) {
		t.Helper()
		runs, ok := canned[s.name]
		if !ok {
			t.Fatalf("no canned measurements for section %s", s.name)
		}
		calls := 0
		fake := func(section) ([]metric, error) {
			calls++
			return runs[calls-1], nil
		}
		dir := t.TempDir()
		_, err := s.run(io.Discard, dir, fake)
		if s.retry {
			if err != nil || calls != 2 {
				t.Errorf("%s: err = %v after %d runs, want a pass on the retry", s.name, err, calls)
			}
		} else if err == nil || calls != 1 {
			t.Errorf("%s: err = %v after %d runs without retry, want one failing run", s.name, err, calls)
		}
		if _, err := os.Stat(filepath.Join(dir, s.out)); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
	for _, s := range sections {
		if s.retry != wantRetry[s.name] {
			t.Errorf("%s: retry = %v, want %v", s.name, s.retry, wantRetry[s.name])
		}
		if s.out != "" {
			check(s)
		}
	}
	once := sectionNamed(t, "vql")
	once.retry = false
	check(once)
}

func TestBenchFileFormat(t *testing.T) {
	dir := t.TempDir()
	s := sectionNamed(t, "obs")
	measured := []metric{
		{"BenchmarkEventRecorder/emit", "227.0"},
		{"BenchmarkBuildInstrumentation", "5391799"},
		{"BenchmarkBuildInstrumentation bare-ns/build", "2697038"},
		{"BenchmarkBuildInstrumentation events-ns/build", "2694761"},
	}
	vs, err := s.run(io.Discard, dir, func(section) ([]metric, error) { return measured, nil })
	if err != nil || len(vs) != 1 || !vs[0].pass {
		t.Fatalf("obs run: %v, %+v", err, vs)
	}
	got, err := os.ReadFile(filepath.Join(dir, s.out))
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "BenchmarkEventRecorder/emit": 227.0,
  "BenchmarkBuildInstrumentation": 5391799,
  "BenchmarkBuildInstrumentation bare-ns/build": 2697038,
  "BenchmarkBuildInstrumentation events-ns/build": 2694761,
  "build_overhead_pct": -0.08
}
`
	if string(got) != want {
		t.Fatalf("BENCH_obs.json =\n%s\nwant\n%s", got, want)
	}
}

// TestObsMedians runs the obs section on five canned runs: the BENCH file
// records each key's median as printed, and build_overhead_pct and the
// gate read the medians of the interleaved per-build costs. One run alone
// (the 4th) would fail the gate.
func TestObsMedians(t *testing.T) {
	const out = `BenchmarkRegistryObserve-2 	 6000000	       193.3 ns/op
BenchmarkBuildInstrumentation-2 	 200	   5410000 ns/op	   2700000 bare-ns/build	   2710000 events-ns/build
BenchmarkRegistryObserve-2 	 6000000	       201.0 ns/op
BenchmarkBuildInstrumentation-2 	 200	   5250000 ns/op	   2600000 bare-ns/build	   2650000 events-ns/build
BenchmarkRegistryObserve-2 	 6000000	       190.1 ns/op
BenchmarkBuildInstrumentation-2 	 200	   5590000 ns/op	   2900000 bare-ns/build	   2690000 events-ns/build
BenchmarkRegistryObserve-2 	 6000000	       199.9 ns/op
BenchmarkBuildInstrumentation-2 	 200	   5600000 ns/op	   2500000 bare-ns/build	   3100000 events-ns/build
BenchmarkRegistryObserve-2 	 6000000	       195.0 ns/op
BenchmarkBuildInstrumentation-2 	 200	   5520000 ns/op	   2800000 bare-ns/build	   2720000 events-ns/build
PASS
`
	dir := t.TempDir()
	s := sectionNamed(t, "obs")
	s.retry = false
	vs, err := s.run(io.Discard, dir, func(section) ([]metric, error) { return parseBench(out), nil })
	if err != nil || len(vs) != 1 || !vs[0].pass {
		t.Fatalf("obs run: %v, %+v", err, vs)
	}
	got, err := os.ReadFile(filepath.Join(dir, s.out))
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "BenchmarkRegistryObserve": 195.0,
  "BenchmarkBuildInstrumentation": 5520000,
  "BenchmarkBuildInstrumentation bare-ns/build": 2700000,
  "BenchmarkBuildInstrumentation events-ns/build": 2710000,
  "build_overhead_pct": 0.37
}
`
	if string(got) != want {
		t.Fatalf("BENCH_obs.json =\n%s\nwant\n%s", got, want)
	}
	if got := medians([]metric{{"k", "4"}, {"k", "1"}, {"k", "3"}, {"k", "2"}}); !reflect.DeepEqual(got, []metric{{"k", "2"}}) {
		t.Fatalf("median of an even count = %v, want the lower middle value", got)
	}
}

func sectionNamed(t *testing.T, name string) section {
	t.Helper()
	for _, s := range sections {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no section %q", name)
	return section{}
}
