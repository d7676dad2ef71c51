package store

import (
	"context"
	"testing"

	"nvbench/internal/bench"
	"nvbench/internal/spider"
)

// BenchmarkStoreRebuild measures the incremental-build win: a cold build
// synthesizes every pair and fills the cache; a warm build of the same
// corpus answers every pair from disk. The cold/warm ratio is the headline
// number scripts/bench.sh records.
func BenchmarkStoreRebuild(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 11, NumDatabases: 5, PairsPerDB: 10, MaxRows: 200})
	if err != nil {
		b.Fatal(err)
	}
	fp := Fingerprint(bench.DefaultOptions())

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			opts := bench.DefaultOptions()
			opts.Cache = st.PairCache(fp)
			b.StartTimer()
			if _, err := bench.Build(corpus, opts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		prime := bench.DefaultOptions()
		prime.Cache = st.PairCache(fp)
		if _, err := bench.Build(corpus, prime); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := bench.DefaultOptions()
			opts.Cache = st.PairCache(fp)
			built, err := bench.Build(corpus, opts)
			if err != nil {
				b.Fatal(err)
			}
			if built.Stats.CacheMisses != 0 {
				b.Fatalf("warm build missed %d times", built.Stats.CacheMisses)
			}
		}
	})
}

// BenchmarkShardedRebuild measures what the sharded layout buys on the
// save path. monolithic-cold is the baseline: everything through one
// shard on one worker, the shape of the pre-sharding store. sharded-cold
// fans the same save across the default shard count on one worker per
// core — the gate scripts/bench.sh enforces is sharded-cold beating
// monolithic-cold. warm is the idempotent re-save: every artifact
// already on disk, so the save reduces to hash comparisons and a
// journal rotation, and the tree must come out byte-identical.
func BenchmarkShardedRebuild(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 11, NumDatabases: 6, PairsPerDB: 24, MaxRows: 200})
	if err != nil {
		b.Fatal(err)
	}
	built, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	info := BuildInfo{Seed: 11, Fingerprint: Fingerprint(bench.DefaultOptions())}

	coldSave := func(b *testing.B, shards, workers int) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := st.SetShardCount(shards); err != nil {
				b.Fatal(err)
			}
			st.SetSaveWorkers(workers)
			b.StartTimer()
			if _, err := st.Save(built, info); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("monolithic-cold", func(b *testing.B) {
		coldSave(b, 1, 1)
	})

	// Worker count is deliberately not tied to GOMAXPROCS: shard saves are
	// fsync-bound, and blocked syscalls overlap regardless of CPU count.
	b.Run("sharded-cold", func(b *testing.B) {
		coldSave(b, DefaultShardCount, DefaultShardCount)
	})

	b.Run("warm", func(b *testing.B) {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Save(built, info); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Save(built, info); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplicatedSave measures the replication tax on the save path.
// single is the pre-replication baseline: one copy of every shard tree.
// double fans each shard out to two replicas, each through its own
// journal — twice the fsync traffic, but serialization and hashing are
// shared across copies. The gate scripts/bench.sh enforces is the
// 2-replica save staying under 2.5x the single-copy save.
func BenchmarkReplicatedSave(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 11, NumDatabases: 5, PairsPerDB: 10, MaxRows: 200})
	if err != nil {
		b.Fatal(err)
	}
	built, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	info := BuildInfo{Seed: 11, Fingerprint: Fingerprint(bench.DefaultOptions())}

	coldSave := func(b *testing.B, replicas int) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := st.SetReplicas(replicas); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := st.Save(built, info); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("single", func(b *testing.B) {
		coldSave(b, 1)
	})

	b.Run("double", func(b *testing.B) {
		coldSave(b, 2)
	})
}

// BenchmarkScrubClean measures the anti-entropy steady state: one full
// scrub cycle over a healthy 2-replica store. A clean scrub is pure
// reading and hashing — no repairs, no writes — so it must come in
// cheaper than a cold rebuild of the same corpus; that is the ceiling
// scripts/bench.sh enforces on the background scrubber's cost.
func BenchmarkScrubClean(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 11, NumDatabases: 5, PairsPerDB: 10, MaxRows: 200})
	if err != nil {
		b.Fatal(err)
	}
	built, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := st.SetReplicas(2); err != nil {
		b.Fatal(err)
	}
	info := BuildInfo{Seed: 11, Fingerprint: Fingerprint(bench.DefaultOptions())}
	if _, err := st.Save(built, info); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := st.Scrub(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("scrub of a healthy store found work: %+v", rep)
		}
	}
}

// BenchmarkVerifyClean measures fsck on a healthy store: Verify re-reads
// and re-hashes every artifact the manifest names and finds nothing. It is
// recorded in BENCH_store.json but not gated.
func BenchmarkVerifyClean(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 11, NumDatabases: 5, PairsPerDB: 10, MaxRows: 200})
	if err != nil {
		b.Fatal(err)
	}
	built, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	info := BuildInfo{Seed: 11, Fingerprint: Fingerprint(bench.DefaultOptions())}
	if _, err := st.Save(built, info); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := st.Verify()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() || rep.Checked == 0 {
			b.Fatalf("verify of a healthy store: %+v", rep)
		}
	}
}

// BenchmarkStoreLoad measures serve set-up's store half: Open plus Load of
// a saved single-copy store, which reads, hashes and decodes every
// database payload and entry record. The store is saved before the timer
// starts, so no fsync falls in the timed region. Rows are capped at the
// CLI's 2,000, so database payloads weigh what they do in a served store.
// It is recorded in BENCH_store.json but not gated.
func BenchmarkStoreLoad(b *testing.B) {
	corpus, err := spider.Generate(spider.Config{Seed: 11, NumDatabases: 6, PairsPerDB: 24, MaxRows: 2000})
	if err != nil {
		b.Fatal(err)
	}
	built, err := bench.Build(corpus, bench.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Save(built, BuildInfo{Seed: 11, Fingerprint: Fingerprint(bench.DefaultOptions())}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		loaded, _, err := st.Load()
		if err != nil {
			b.Fatal(err)
		}
		if len(loaded.Entries) != len(built.Entries) {
			b.Fatalf("loaded %d entries, want %d", len(loaded.Entries), len(built.Entries))
		}
	}
}
