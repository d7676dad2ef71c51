// Tests for the store's wide events: every public entry point emits one
// store-layer event into an attached recorder, plus one per shard it
// saves, loads or repairs under the same op ID, load events carry the
// replica-failover flag, and — the chaos acceptance — recording events
// during a faulted save leaves the artifacts byte-identical to a bare,
// uninstrumented save.

package store

import (
	"context"
	"testing"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/fault"
	"nvbench/internal/obs"
)

// eventInstruments builds an instruments bundle with a deterministic
// clock, an event recorder, and an op-ID generator.
func eventInstruments() (*obs.Instruments, *obs.EventRecorder) {
	clock := obs.NewManualClock(time.Unix(0, 0x1234).UTC())
	rec := obs.NewEventRecorder(256, clock)
	return &obs.Instruments{
		Metrics: obs.NewRegistry(),
		Clock:   clock,
		Events:  rec,
		IDs:     obs.NewIDGen(clock),
	}, rec
}

// storeEvents returns the store-layer events for one site, oldest first.
func storeEvents(rec *obs.EventRecorder, site string) []obs.Event {
	return rec.Events(obs.EventFilter{Layer: obs.LayerStore, Site: site})
}

// checkShardEvents asserts that parent's operation emitted at least one
// ok event at the per-shard site, each under parent's op ID and naming a
// distinct shard.
func checkShardEvents(t *testing.T, rec *obs.EventRecorder, site string, parent obs.Event) {
	t.Helper()
	shards := map[string]bool{}
	for _, e := range storeEvents(rec, site) {
		sh := e.Field("shard")
		if e.Op != parent.Op || e.Outcome != "ok" || sh == "" || shards[sh] {
			t.Fatalf("%s event = %+v, want an ok event for a new shard under op %q", site, e, parent.Op)
		}
		shards[sh] = true
	}
	if len(shards) == 0 {
		t.Fatalf("%s emitted no per-shard events", parent.Site)
	}
}

func TestStoreEntryPointsEmitWideEvents(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	ins, rec := eventInstruments()
	st.Instrument(ins)

	m, err := st.Save(b, BuildInfo{})
	if err != nil {
		t.Fatal(err)
	}
	saves := storeEvents(rec, "save")
	if len(saves) != 1 {
		t.Fatalf("save emitted %d events", len(saves))
	}
	e := saves[0]
	if e.Outcome != "ok" || e.Op == "" || obs.SanitizeOpID(e.Op) != e.Op {
		t.Fatalf("save event = %+v", e)
	}
	if e.Field("shards") == "" || e.Field("replicas") != "2" ||
		e.Field("entries") == "" {
		t.Fatalf("save event fields = %v", e.Fields)
	}
	checkShardEvents(t, rec, "shard_save", e)

	if _, _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	loads := storeEvents(rec, "load")
	if len(loads) != 1 || loads[0].Outcome != "ok" {
		t.Fatalf("load events = %+v", loads)
	}
	if got := loads[0].Field("failover"); got != "false" {
		t.Fatalf("clean load failover field = %q", got)
	}
	checkShardEvents(t, rec, "shard_load", loads[0])

	if _, err := st.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}
	scrubs := storeEvents(rec, "scrub")
	if len(scrubs) != 1 || scrubs[0].Outcome != "ok" ||
		scrubs[0].Field("repaired") != "0" || scrubs[0].Field("escalated") != "false" {
		t.Fatalf("scrub events = %+v", scrubs)
	}

	if _, err := st.Repair(); err != nil {
		t.Fatal(err)
	}
	repairs := storeEvents(rec, "repair")
	if len(repairs) != 1 || repairs[0].Outcome != "ok" ||
		repairs[0].Field("temps_swept") != "0" || repairs[0].Field("lossy") != "false" {
		t.Fatalf("repair events = %+v", repairs)
	}
	checkShardEvents(t, rec, "shard_repair", repairs[0])

	// Every operation minted its own distinct op; shard events joined it.
	ops := map[string]bool{}
	for _, e := range rec.Events(obs.EventFilter{Layer: obs.LayerStore}) {
		ops[e.Op] = true
	}
	if len(ops) != 4 {
		t.Fatalf("store ops not distinct: %v", ops)
	}
	_ = m
}

func TestLoadEventFlagsReplicaFailover(t *testing.T) {
	_, b := testBench(t)
	dir := t.TempDir()
	mustSaveReplicated(t, dir, b, 2)
	primary, _ := primaryArtifact(t, dir, entriesDir)
	flipByte(t, primary)

	st, err := OpenReplicated(dir)
	if err != nil {
		t.Fatal(err)
	}
	ins, rec := eventInstruments()
	st.Instrument(ins)
	if _, _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	loads := storeEvents(rec, "load")
	if len(loads) != 1 || loads[0].Outcome != "ok" {
		t.Fatalf("load events = %+v", loads)
	}
	if got := loads[0].Field("failover"); got != "true" {
		t.Fatalf("failed-over load event field = %q, want true", got)
	}
}

// TestEventsLeaveSavedStoreByteIdentical is the chaos acceptance for the
// tracing layer: a fully instrumented save — event recorder and an
// active latency fault plan emitting fault events mid-write —
// must produce artifacts byte-for-byte identical to a bare save.
func TestEventsLeaveSavedStoreByteIdentical(t *testing.T) {
	_, b := testBench(t)

	bareDir := t.TempDir()
	mustSave(t, bareDir, b)

	insDir := t.TempDir()
	st, err := Open(insDir)
	if err != nil {
		t.Fatal(err)
	}
	ins, rec := eventInstruments()
	st.Instrument(ins)
	fault.RegisterEvents(rec)
	defer fault.RegisterEvents(nil)
	restore := fault.Activate(fault.NewPlan(7).Add(
		fault.Rule{Site: "*", Kind: fault.KindLatency, Rate: 0.5, Delay: 100 * time.Microsecond}))
	_, err = st.Save(b, BuildInfo{Seed: testCfg.Seed, Fingerprint: Fingerprint(bench.DefaultOptions())})
	restore()
	if err != nil {
		t.Fatal(err)
	}

	if len(storeEvents(rec, "save")) != 1 {
		t.Fatal("instrumented save emitted no wide event")
	}
	if faults := rec.Events(obs.EventFilter{Layer: obs.LayerFault}); len(faults) == 0 {
		t.Fatal("latency plan at rate 0.5 emitted no fault events")
	} else if faults[len(faults)-1].Outcome != "fault" {
		t.Fatalf("fault event outcome = %q", faults[len(faults)-1].Outcome)
	}

	sameTree(t, treeBytes(t, bareDir), treeBytes(t, insDir))
}
