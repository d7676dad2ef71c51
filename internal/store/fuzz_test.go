package store

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nvbench/internal/dataset"
)

// FuzzShardRoute checks the routing function the whole sharded layout
// rests on. For any input it must be total (malformed hashes and invalid
// counts route to shard 0 rather than failing), bounded, stable across
// calls — the property that makes a re-save route every entry back to its
// shard — and nested: the 256-way route modulo any smaller power-of-two
// count is that count's route, so shrinking the layout merges buckets
// predictably. At the widest layout the route is exactly the first hash
// byte, which is the uniformity argument: SHA-256 first bytes are uniform.
func FuzzShardRoute(f *testing.F) {
	f.Add("", 16)
	f.Add("deadbeef", 16)
	f.Add("ff00", 256)
	f.Add("zz-not-hex", 4)
	f.Add(strings.Repeat("a", 64), 0)
	f.Add("0f", 3) // not a power of two
	f.Fuzz(func(t *testing.T, hash string, count int) {
		got := shardIndex(hash, count)
		if !validShardCount(count) {
			if got != 0 {
				t.Fatalf("invalid count %d must route to shard 0, got %d", count, got)
			}
			return
		}
		if got < 0 || got >= count {
			t.Fatalf("route(%q, %d) = %d, outside [0, %d)", hash, count, got, count)
		}
		if again := shardIndex(hash, count); again != got {
			t.Fatalf("route(%q, %d) is unstable: %d then %d", hash, count, got, again)
		}
		wide := shardIndex(hash, maxShardCount)
		if wide%count != got {
			t.Fatalf("nesting broken: route(%q, 256) = %d, %% %d = %d, want %d",
				hash, wide, count, wide%count, got)
		}
		if len(hash) >= 2 {
			if b, ok := hexByte(hash[0], hash[1]); ok && wide != b {
				t.Fatalf("route(%q, 256) = %d, want the first hash byte %d", hash, wide, b)
			}
		}
	})
}

// FuzzEntryCodec throws arbitrary bytes at the entry decoder and, for any
// input it accepts, checks the codec is a fixed point: decode → rebuild →
// re-encode → decode must reproduce the canonical bytes exactly. The
// decoder may reject garbage (that is its job) but must never panic, and
// anything it accepts must round-trip byte-identically — the invariant
// content addressing rests on.
func FuzzEntryCodec(f *testing.F) {
	_, b := testBench(f)
	for i, e := range b.Entries {
		if i >= 8 {
			break
		}
		data, err := encodeEntry(e, "d41d8c")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"id":1,"pair_id":2,"db":"x","source_nl":"q","vis":"Visualize BAR Select a , b From t","chart":"BAR","hardness":"Easy","nls":["one"]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	db := &dataset.Database{Name: "fuzz"}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeEntryRecord(data)
		if err != nil {
			return // rejected input: fine, as long as we got here without panicking
		}
		e, err := rec.toEntry(db)
		if err != nil {
			return
		}
		first, err := encodeEntry(e, rec.DB)
		if err != nil {
			t.Fatalf("decoded entry failed to re-encode: %v", err)
		}
		rec2, err := decodeEntryRecord(first)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v", err)
		}
		e2, err := rec2.toEntry(db)
		if err != nil {
			t.Fatalf("canonical record failed to rebuild: %v", err)
		}
		second, err := encodeEntry(e2, rec2.DB)
		if err != nil {
			t.Fatalf("rebuilt entry failed to re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("codec is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}

// FuzzJournalRecover throws arbitrary bytes at journal recovery — the
// code path that runs on every Open of a crashed store — and checks its
// invariants: never a panic, a begin record exactly when the state says
// so, and a torn tail only on newline-less input.
func FuzzJournalRecover(f *testing.F) {
	begin := mustLine(f, journalRecord{Op: opBegin, Build: &BuildInfo{Seed: 1}})
	intent := mustLine(f, journalRecord{Op: opIntent, Path: "entries/x.json", Hash: "x"})
	commit := mustLine(f, journalRecord{Op: opCommit})
	f.Add([]byte{})
	f.Add(begin)
	f.Add(concatLines(begin, intent, commit))
	f.Add(concatLines(begin, commit[:len(commit)/2]))
	f.Add([]byte("garbage\nlines\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j := recoverJournal(data)
		switch j.State {
		case JournalClean, JournalInProgress:
			if j.Begin == nil {
				t.Fatalf("state %s without a begin record", j.State)
			}
		case JournalCorrupt:
			if j.Begin != nil {
				t.Fatal("corrupt state despite an intact begin record")
			}
		default:
			t.Fatalf("recovery returned impossible state %s", j.State)
		}
		if j.TornTail && len(data) > 0 && data[len(data)-1] == '\n' {
			t.Fatal("torn tail reported on newline-terminated input")
		}
		if len(j.Intents) > 0 && j.Begin == nil {
			t.Fatal("intents recovered without a begin record")
		}
	})
}

// decodeSeed is one fuzz seed and whether the one-pass scan must take it
// (fast) rather than leave it to the strict decoder.
type decodeSeed struct {
	data string
	fast bool
}

// addDecodeSeeds adds the encoder's own output and the hand-written edge
// cases to f. Every encoder output must take the one-pass scan, and each
// edge case the path it names; a counter of fast-path hits over the
// encoder outputs shows the seeds exercise the scan, not just the
// fallback.
func addDecodeSeeds(f *testing.F, encoded [][]byte, edges []decodeSeed, scan func([]byte) bool) {
	f.Helper()
	hits := 0
	for _, data := range encoded {
		if scan(data) {
			hits++
		}
		f.Add(data)
	}
	if hits != len(encoded) || hits == 0 {
		f.Fatalf("%d of %d encoder outputs took the one-pass scan, want all", hits, len(encoded))
	}
	for _, e := range edges {
		if got := scan([]byte(e.data)); got != e.fast {
			f.Fatalf("scan of %q: ok = %v, want %v", e.data, got, e.fast)
		}
		f.Add([]byte(e.data))
	}
}

// FuzzDecodeDatabase checks the one-pass payload scan against its oracle,
// decodeDatabaseStrict: whatever the scan accepts the strict decoder
// accepts too, with a reflect.DeepEqual value (nil and empty slices
// told apart), and on input the strict decoder rejects decodeDatabase
// returns exactly its error.
func FuzzDecodeDatabase(f *testing.F) {
	_, b := testBench(f)
	var encoded [][]byte
	seen := map[*dataset.Database]bool{}
	for _, e := range b.Entries {
		if seen[e.DB] || len(seen) == 1 {
			continue
		}
		seen[e.DB] = true
		// Whole payloads run to ~100 KB. With seeds of even 4–9 KB (two
		// rows per table of three databases) the fuzzer found no new
		// input, so the seed is one database with one row per table.
		small := *e.DB
		small.Tables = nil
		for _, t := range e.DB.Tables {
			small.Tables = append(small.Tables, &dataset.Table{Name: t.Name, Columns: t.Columns, Rows: t.Rows[:min(1, len(t.Rows))]})
		}
		data, err := encodeDatabase(&small)
		if err != nil {
			f.Fatal(err)
		}
		encoded = append(encoded, data)
	}
	const tables = `"tables":[{"name":"t","columns":[{"name":"a","type":"C"},{"name":"q","type":"Q"},{"name":"w","type":"T"}],"rows":[`
	edges := []decodeSeed{
		{`{"name":"a\"b","domain":"\u003cd\u003e","tables":[]}`, true},
		{`{"name":"😀","domain":"\ud83d","tables":[]}`, true},
		{"{\"name\":\"\xff\",\"domain\":\"d\",\"tables\":[]}", false},
		{`{"name":"caf` + "é" + `","domain":"d","tables":[]}`, true},
		{`{"name":"n","domain":"d",` + tables + `[["C"],["Q"],["T"]]]}]}`, true},
		{`{"name":"n","domain":"d",` + tables + `[["C",null],["Q"],["T"]]]}]}`, false},
		{`{"name":null,"domain":"d","tables":[]}`, false},
		{`{"name":"n","domain":"d","tables":[],"foreign_keys":null}`, false},
		{`{"name":"n","domain":"d",` + tables + `[["C","x"],["Q",-0],["T","2020-01-02T03:04:05.5+02:00"]]]}]}`, true},
		{`{"name":"n","domain":"d",` + tables + `[["C","x"],["Q",1e400],["T","2020-01-02T03:04:05Z"]]]}]}`, false},
		{`{"name":"n","domain":"d",` + tables + `[["C","x"],["Q",01],["T","2020-01-02T03:04:05Z"]]]}]}`, false},
		{`{"name":"n","domain":"d",` + tables + `[["C","x"],["Q",1.0E+2],["T","2020-01-02T03:04:05Z"]]]}]}`, true},
		{`{"name":"n","domain":"d",` + tables + `[["C","x"],["Q",1],["T","yesterday"]]]}]}`, false},
		{`{"name":"n","domain":"d",` + tables + `[["C","x"],["Q",1]]]}]}`, false},
		{`{"name":"n","domain":"d","tables":[{"name":"t","columns":[{"name":"a","type":"X"}],"rows":[]}]}`, false},
		{`{"Name":"n","domain":"d","tables":[]}`, false},
		{`{"name":"n","name":"m","domain":"d","tables":[]}`, false},
		{`{"name":"n","domain":"d","tables":[{"name":"t","columns":[],"rows":[]}]}`, true},
		{`{"name":"n","domain":"d","tables":[{"name":"t","columns":[],"rows":[[],[]]}]}`, true},
		{`{"name":"n","domain":"d","tables":[],"foreign_keys":[]}`, true},
		{`{"name":"n","domain":"d","tables":[],"foreign_keys":[{"from_table":"a","from_column":"b","to_table":"c","to_column":"d"}]}`, true},
		{"{\"name\":\"n\",\"domain\":\"d\",\"tables\":[]}\n \t", true},
		{`{"name":"n","domain":"d","tables":[]} {}`, false},
		{``, false},
	}
	addDecodeSeeds(f, encoded, edges, func(data []byte) bool { _, ok := scanDatabase(data); return ok })
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeDatabaseStrict(data)
		if scanned, ok := scanDatabase(data); ok {
			if wantErr != nil {
				t.Fatalf("scan accepted what the strict decoder rejects: %v", wantErr)
			}
			if !reflect.DeepEqual(scanned, want) {
				t.Fatalf("scan and strict decoder disagree:\n%#v\nvs\n%#v", scanned, want)
			}
		}
		got, err := decodeDatabase(data)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("decodeDatabase error %v, want the strict decoder's %v", err, wantErr)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeDatabase = %#v, %v; want %#v", got, err, want)
		}
	})
}

// FuzzDecodeEntry is FuzzDecodeDatabase for entry records, whose oracle is
// decodeStrict into an entryRecord.
func FuzzDecodeEntry(f *testing.F) {
	_, b := testBench(f)
	var encoded [][]byte
	for i, e := range b.Entries {
		if i >= 8 {
			break
		}
		data, err := encodeEntry(e, "d41d8c")
		if err != nil {
			f.Fatal(err)
		}
		encoded = append(encoded, data)
	}
	const head = `{"id":1,"pair_id":2,"db":"x","source_nl":"q","vis":"visualize bar select t.a count t.* from t group grouping t.a","chart":"bar","hardness":"easy",`
	edges := []decodeSeed{
		{head + `"nls":["a \"b\" \u003c c"]}`, true},
		{head + `"nls":["😀 \ud800"]}`, true},
		{head + "\"nls\":[\"\xc3\x28\"]}", false},
		{head + `"nls":null}`, false},
		{head + `"nls":[null]}`, false},
		{head + `"nls":[]}`, true},
		{head + `"manual":true,"nls":["x"]}`, true},
		{head + `"nls":["x"],"edit":[]}`, true},
		{head + `"nls":["x"],"edit":null}`, false},
		{head + `"nls":["x"],"edit":[{"kind":"insert-visualize","chart":"bar"}]}`, true},
		{head + `"nls":["x"],"edit":[{"kind":"insert-group","attr":{"column":"a","table":"t"},"group":{"kind":"binning","attr":{"column":"a","table":"t","distinct":true},"bin":"year","num_bins":10}},{"kind":"insert-order","order":{"dir":"asc","attr":{"agg":"count","column":"*"}}}]}`, true},
		{head + `"nls":["x"],"edit":[{"kind":"insert-order","attr":null}]}`, false},
		{`{"id":-0,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","nls":[]}`, true},
		{`{"id":1e400,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","nls":[]}`, false},
		{`{"id":01,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","nls":[]}`, false},
		{`{"id":1.0E+2,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","nls":[]}`, false},
		{`{"ID":1,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","nls":[]}`, false},
		{`{"id":1,"id":1,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","nls":[]}`, false},
		{`{"id":1,"pair_id":2,"db":"x","source_nl":"q","vis":"v","chart":"bar","hardness":"easy","manual":"yes","nls":[]}`, false},
		{head + `"nls":["x"]}` + "\n", true},
		{head + `"nls":["x"]}]`, false},
		{head + `"nls":["x"],"extra":1}`, false},
	}
	addDecodeSeeds(f, encoded, edges, func(data []byte) bool { _, ok := scanEntryRecord(data); return ok })
	f.Fuzz(func(t *testing.T, data []byte) {
		var want entryRecord
		wantErr := decodeStrict(data, &want)
		if scanned, ok := scanEntryRecord(data); ok {
			if wantErr != nil {
				t.Fatalf("scan accepted what the strict decoder rejects: %v", wantErr)
			}
			if !reflect.DeepEqual(*scanned, want) {
				t.Fatalf("scan and strict decoder disagree:\n%#v\nvs\n%#v", *scanned, want)
			}
		}
		got, err := decodeEntryRecord(data)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("decodeEntryRecord error %v, want the strict decoder's %v", err, wantErr)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("decodeEntryRecord = %#v, %v; want %#v", got, err, want)
		}
	})
}
