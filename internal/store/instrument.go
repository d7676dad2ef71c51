// Observability wiring: the store records how long saves, loads and
// repairs take (nvbench_store_seconds{op=...}) and how journal recovery
// resolves interrupted saves (nvbench_store_journal_total{action=...}).
// Durations come from the injected obs clock, never time.Now — store is a
// deterministic package under the detrand gate.

package store

import (
	"context"

	"nvbench/internal/obs"
)

// Instrument attaches observability handles to the store. Nil (the
// default) disables instrumentation; artifacts on disk are identical
// either way.
func (s *Store) Instrument(in *obs.Instruments) { s.ins = in }

// shardOp opens one event-only operation on one shard (shard_save,
// shard_load or shard_repair) under ctx's op; the returned func ends it.
func (s *Store) shardOp(ctx context.Context, site, shard string) func(error) {
	t := s.ins.Begin(ctx, obs.LayerStore, site)
	return func(err error) {
		if err != nil {
			t.End("error", "shard", shard, "error", err.Error())
		} else {
			t.End("ok", "shard", shard)
		}
	}
}

// countJournal records one journal recovery outcome.
func (s *Store) countJournal(action string) {
	s.ins.Inc(obs.L(obs.StoreJournal, "action", action))
}

// countFailover records one read re-route to a non-primary replica.
func (s *Store) countFailover() { s.ins.Inc(obs.StoreFailovers) }

// countScrubCycle records one anti-entropy pass starting.
func (s *Store) countScrubCycle() { s.ins.Inc(obs.StoreScrubCycles) }

// addScrubRepaired records how many artifact copies a scrub rewrote from
// a verified replica.
func (s *Store) addScrubRepaired(n int) { s.ins.Add(obs.StoreScrubRepaired, int64(n)) }

// setReplicaHealthy publishes one replica's health gauge (1 = every shard
// copy passed its last self-check).
func (s *Store) setReplicaHealthy(replica string, v int64) {
	s.ins.SetGauge(obs.L(obs.StoreReplicaHealthy, "replica", replica), v)
}

// beginOp opens one store entry point's timed operation: its End records
// nvbench_store_seconds{op=site} and the store-layer wide event. Store
// operations originate outside any request, so each mints its own op ID,
// which the returned context carries to its per-shard events.
// Events flow only into the recorder — never into the store's artifacts —
// so instrumented and bare saves stay byte-identical.
func (s *Store) beginOp(site string) (context.Context, obs.Timing) {
	ctx, _ := s.ins.NewOp(context.Background())
	return ctx, s.ins.Begin(ctx, obs.LayerStore, site)
}

// failoverCount reads how many read re-routes the store has taken since
// Open — diffed around a load to flag failover in its wide event.
func (s *Store) failoverCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.failovers)
}
