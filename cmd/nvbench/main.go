// Command nvbench synthesizes an NL2VIS benchmark from a generated
// Spider-like NL2SQL corpus and prints the dataset statistics the paper
// reports: Table 2, Table 3, Figures 8–10, the rejection buckets of
// Section 2.4, and optionally exports the (nl, vis) pairs as JSON.
//
// Usage:
//
//	nvbench -dbs 40 -pairs 20 -seed 1 -out pairs.json
//
// The synthesis pipeline is fault tolerant: pairs are processed by a
// worker pool (-workers), transient failures are retried (-retries), and
// pairs that still fail are quarantined and reported instead of aborting
// the run. A deterministic fault plan (-faults, -fault-seed) injects
// errors, panics, latency, torn writes and process crashes at registered
// sites for chaos testing. Store damage heals with -repair; an interrupted
// incremental build picks up from its checkpoint with -resume.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/dataset"
	"nvbench/internal/fault"
	"nvbench/internal/obs"
	"nvbench/internal/render"
	"nvbench/internal/server"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
	"nvbench/internal/stats"
	"nvbench/internal/store"
	"nvbench/internal/vql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvbench: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process plumbing, so tests can drive the full
// CLI in-process with an arbitrary fault plan and inspect the output.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nvbench", flag.ContinueOnError)
	var (
		dbs       = fs.Int("dbs", 30, "number of databases to generate")
		pairs     = fs.Int("pairs", 20, "average (nl, sql) pairs per database")
		seed      = fs.Int64("seed", 1, "generation seed")
		maxPairs  = fs.Int("max-pairs", 0, "cap on total source pairs (0 = all)")
		out       = fs.String("out", "", "write (nl, vis) pairs as JSON to this file")
		vega      = fs.Bool("vega", false, "include a Vega-Lite spec per exported entry")
		serve     = fs.String("serve", "", "serve the benchmark browser on this address (e.g. :8080)")
		csvPath   = fs.String("csv", "", "build the benchmark from this CSV file instead of the generated corpus")
		csvTable  = fs.String("table", "data", "table name for the -csv input")
		csvPairs  = fs.Int("gen-pairs", 12, "number of (nl, sql) pairs to generate for the -csv input")
		workers   = fs.Int("workers", 0, "synthesis worker pool size (0 = GOMAXPROCS)")
		retries   = fs.Int("retries", 3, "attempts per pair before quarantining it")
		faults    = fs.String("faults", "", `fault plan, e.g. "parse:error:0.05,*:panic:0.01" (site:kind:rate[:delay])`)
		faultSeed = fs.Int64("fault-seed", 1, "seed for the deterministic fault plan")
		storeDir  = fs.String("store", "", "benchmark store directory; alone, load the stored benchmark instead of building")
		save      = fs.Bool("save", false, "persist the built benchmark to -store")
		shards    = fs.Int("shards", 0, "store save worker pool size: shards written in parallel (0 = GOMAXPROCS)")
		shardN    = fs.Int("shard-count", 0, "shard count for a new store (power of two ≤ 256; 0 = default 16; ignored once a store exists)")
		replicas  = fs.Int("replicas", 0, "replica count for a new store: byte-identical copies of every shard under replicas/r0../ (1-8; 0 = single copy; ignored once a store exists)")
		scrub     = fs.Bool("scrub", false, "anti-entropy pass over -store: re-hash every artifact in every replica, heal divergence from a verified copy, and exit non-zero only if content was unrecoverable")
		scrubIvl  = fs.Duration("scrub-interval", 0, "with -serve: run a background scrub of -store at this interval (0 disables)")
		incr      = fs.Bool("incremental", false, "build through -store's pair cache, skipping unchanged pairs")
		fsck      = fs.Bool("fsck", false, "verify every artifact in -store, report corruption and exit")
		repair    = fs.Bool("repair", false, "heal -store in place: salvage artifacts, move damage to lost+found/")
		resume    = fs.Bool("resume", false, "resume an interrupted build: repair -store if needed, then build with -incremental -save")
		tracePath = fs.String("trace", "", "write a Chrome trace-event file (chrome://tracing) of the run to this path")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this separate address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume {
		*incr, *save = true, true
	}

	// Observability: every layer shares one Instruments bundle over a
	// run-scoped registry (so in-process test runs do not bleed counts into
	// each other). Metrics and wide events are always on; -trace renders
	// the run's events, so a traced run records into an unbounded ring
	// that keeps them all.
	capacity := obs.DefaultEventCapacity
	if *tracePath != "" {
		capacity = math.MaxInt
	}
	reg := obs.NewRegistry()
	ins := &obs.Instruments{
		Metrics: reg,
		Clock:   obs.RealClock{},
		Log:     obs.NewLogger(os.Stderr, obs.RealClock{}),
		Events:  obs.NewEventRecorder(capacity, nil),
		IDs:     obs.NewIDGen(obs.RealClock{}),
	}
	obs.RegisterBase(reg)
	fault.RegisterMetrics(reg)
	// Fault injection and the parser are process-wide, so their
	// instruments are too; restore on exit so in-process test runs do not
	// cross-record.
	defer fault.Instrument(ins)()
	defer sqlparser.Instrument(ins)()
	if *debugAddr != "" {
		go func() {
			if err := server.RunDebug(ctx, *debugAddr, reg); err != nil {
				log.Printf("debug listener %s: %v", *debugAddr, err)
			}
		}()
		fmt.Fprintf(w, "debug listener (pprof + /metrics) on %s\n\n", *debugAddr)
	}

	var plan *fault.Plan
	if *faults != "" {
		var err error
		plan, err = fault.ParsePlan(*faults, *faultSeed)
		if err != nil {
			return err
		}
		defer fault.Activate(plan)()
		fmt.Fprintf(w, "fault plan active: %s (seed %d)\n\n", plan, *faultSeed)
	}

	if (*save || *incr || *fsck || *repair || *scrub || *scrubIvl != 0) && *storeDir == "" {
		return fmt.Errorf("-save, -incremental, -fsck, -repair, -scrub, -scrub-interval and -resume require -store")
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.OpenReplicated(*storeDir); err != nil {
			return err
		}
		st.Instrument(ins)
		if *shardN != 0 {
			if err := st.SetShardCount(*shardN); err != nil {
				return err
			}
		}
		if *replicas != 0 {
			if err := st.SetReplicas(*replicas); err != nil {
				return err
			}
		}
		if *shards != 0 {
			st.SetSaveWorkers(*shards)
		}
		if r := st.Status(); r.Dirty() {
			fmt.Fprintf(w, "store %s opened dirty: %s\n\n", *storeDir, r)
		}
	}

	// Healing: -repair always repairs; -resume repairs only when the store
	// fails verification (a clean checkpoint needs no healing). A lossy
	// repair is fatal unless the run continues into a rebuild (-resume,
	// which re-synthesizes what was lost) or explicitly serves the salvage.
	var degraded *server.Degradation
	if *repair || *resume {
		need := *repair
		if !need {
			// A Verify error means the store cannot even be walked (e.g. the
			// interrupted save never landed its manifest) — repair territory.
			frep, err := st.Verify()
			need = err != nil || !frep.OK()
		}
		if need {
			rep, err := st.Repair()
			if err != nil {
				return err
			}
			store.WriteRepair(w, rep)
			fmt.Fprintln(w)
			degraded = repairDetail(rep)
			if rep.Lossy() && !*resume && *serve == "" {
				err := fmt.Errorf("store %s: repair lost %d entries and %d databases (bytes preserved under %s)",
					*storeDir, rep.EntriesLost, rep.DatabasesLost, "lost+found/")
				return errors.Join(err, writeTrace(*tracePath, ins.Events))
			}
		}
	}
	// Exit-code contract for the store health verbs, on both layouts
	// (sharded, replicated): -fsck exits non-zero iff the store has
	// corruption (it never writes); -repair exits non-zero iff content
	// was lost (a clean or fully-salvaged heal exits zero); -scrub exits
	// non-zero iff an artifact was unrecoverable in every replica
	// (divergence healed from a verified copy exits zero). A format-1
	// store fails all three at Open. A verb that ends the run writes its
	// -trace whatever its verdict.
	if *scrub {
		rep, err := st.Scrub(ctx)
		if err == nil {
			store.WriteScrub(w, rep)
			if rep.Lossy() {
				err = fmt.Errorf("store %s: scrub could not recover all content", *storeDir)
			}
		}
		return errors.Join(err, writeTrace(*tracePath, ins.Events))
	}
	if *fsck {
		rep, err := st.Verify()
		if err == nil {
			store.WriteFsck(w, rep)
			if !rep.OK() {
				err = fmt.Errorf("store %s is corrupt", *storeDir)
			}
		}
		return errors.Join(err, writeTrace(*tracePath, ins.Events))
	}
	if st != nil && !*save && !*incr {
		return serveStore(ctx, st, w, *out, *vega, *serve, degraded, ins, *tracePath, *scrubIvl)
	}

	var corpus *spider.Corpus
	var err error
	if *csvPath != "" {
		corpus, err = corpusFromCSV(*csvPath, *csvTable, *csvPairs, *seed)
	} else {
		cfg := spider.Config{Seed: *seed, NumDatabases: *dbs, PairsPerDB: *pairs, MaxRows: 2000}
		corpus, err = spider.Generate(cfg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated corpus: %d databases, %d (nl, sql) pairs\n\n", len(corpus.Databases), len(corpus.Pairs))

	bench.WriteTable2(w, bench.ComputeTable2(corpus))
	fmt.Fprintln(w)

	f8 := bench.ComputeFigure8(corpus)
	fmt.Fprintln(w, "Figure 8: distribution of columns and rows per table")
	printHist(w, " #columns", f8.ColumnHist, []string{"<=2", "3-5", "6-10", "11-20", "21-48", ">48"})
	printHist(w, " #rows", f8.RowHist, []string{"<=5", "6-100", "101-1k", "1k-10k", ">10k"})
	fmt.Fprintln(w)

	f9 := bench.ComputeFigure9(corpus)
	fmt.Fprintf(w, "Figure 9: column-level statistics (%d quantitative columns)\n", f9.QuantColumns)
	fmt.Fprint(w, "  best-fit distribution:")
	for _, d := range append([]stats.Distribution{stats.DistNone}, stats.AllDistributions...) {
		fmt.Fprintf(w, " %s=%d", d, f9.DistCounts[d])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  skewness: symmetric=%d moderate=%d high=%d\n",
		f9.SkewCounts[stats.ApproxSymmetric], f9.SkewCounts[stats.ModeratelySkewed], f9.SkewCounts[stats.HighlySkewed])
	fmt.Fprintf(w, "  outliers: 0%%=%d (0,1%%]=%d (1,10%%]=%d >10%%=%d\n",
		f9.OutlierCounts[stats.NoOutliers], f9.OutlierCounts[stats.FewOutliers],
		f9.OutlierCounts[stats.SomeOutliers], f9.OutlierCounts[stats.ManyOutliers])
	fmt.Fprintln(w)

	opts := bench.DefaultOptions()
	opts.MaxPairs = *maxPairs
	opts.Workers = *workers
	opts.Retries = *retries
	opts.Obs = ins
	fingerprint := store.Fingerprint(opts)
	if *incr {
		opts.Cache = st.PairCache(fingerprint)
	}
	b, err := bench.Build(corpus, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "synthesized benchmark: %d vis objects, %d (nl, vis) pairs, manual NL fraction %.2f%%\n\n",
		len(b.Entries), b.NumPairs(), 100*b.ManualFraction())

	bench.WriteTable3(w, b.Table3(), len(b.Entries), b.NumPairs())
	fmt.Fprintln(w)
	bench.WriteFigure10(w, b.TypeHardnessMatrix())
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Section 2.4: filtered candidates by reason")
	for _, k := range b.SortedRejectionReasons() {
		fmt.Fprintf(w, "  %-34s %d\n", k, b.Rejections[k])
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "run stats: workers=%d retried_attempts=%d classifier_fallbacks=%d pairs_synthesized=%d",
		b.Stats.Workers, b.Stats.RetriedAttempts, b.Stats.ClassifierFallbacks, b.Stats.PairsSynthesized)
	if *incr {
		fmt.Fprintf(w, " cache_hits=%d cache_misses=%d cache_write_errors=%d",
			b.Stats.CacheHits, b.Stats.CacheMisses, b.Stats.CacheWriteErrors)
	}
	fmt.Fprintln(w)
	writeStageTable(w, reg)
	bench.WriteQuarantine(w, b)

	var manifest *store.Manifest
	if *save {
		manifest, err = st.Save(b, store.BuildInfo{Seed: *seed, Fingerprint: fingerprint})
		if err == nil {
			fmt.Fprintf(w, "\nsaved %d entries (%d database payloads) to %s\n",
				len(manifest.Entries), len(manifest.Databases), *storeDir)
		}
	}
	if err == nil && *out != "" {
		if err = export(b, *out, *vega, ins); err == nil {
			fmt.Fprintf(w, "\nwrote %s\n", *out)
		}
	}
	// After -save and -out, so injections fired while saving or
	// exporting are counted too, also when one of them failed.
	if plan != nil {
		fmt.Fprintln(w, "\nfault injections by site:")
		for _, st := range plan.Stats() {
			fmt.Fprintf(w, "  %-12s calls=%-6d errors=%-5d panics=%-5d delays=%-5d torn=%d\n",
				st.Site, st.Calls, st.Errors, st.Panics, st.Latency, st.Torn)
		}
	}
	if err != nil {
		return err
	}

	if err := writeTrace(*tracePath, ins.Events); err != nil {
		return err
	}
	if *serve != "" {
		return serveBenchmark(ctx, w, *serve, b, st, manifest, degraded, servingInstruments(ins, st, *tracePath), *scrubIvl)
	}
	return nil
}

// writeStageTable prints the end-of-run per-stage timing summary from the
// registry's stage histograms; stages that never ran are omitted.
func writeStageTable(w io.Writer, reg *obs.Registry) {
	snap := reg.Snapshot()
	var rows []string
	for _, stage := range obs.Stages {
		h, ok := snap.Histograms[obs.L(obs.StageHistogram, "stage", stage)]
		if !ok || h.Count == 0 {
			continue
		}
		rows = append(rows, fmt.Sprintf("  %-10s calls=%-6d total=%9.3fms avg=%8.3fms p50=%8.3fms p95=%8.3fms",
			stage, h.Count, h.Sum*1e3, h.Mean()*1e3, 1e3*h.Quantile(0.5), 1e3*h.Quantile(0.95)))
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "pipeline stage timings:")
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
}

// writeTrace renders the run's wide events as a Chrome trace-event file; a
// no-op without -trace. Under -trace the ring is unbounded, so it holds
// every event of the run.
func writeTrace(path string, rec *obs.EventRecorder) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, rec.Events(obs.EventFilter{}))
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// servingInstruments returns the instruments a run serves with. A traced
// run has written its trace by then, and its unbounded ring would grow
// with every request, so serving records into a copy of ins over a fresh
// DefaultEventCapacity ring, with the store and fault injection
// re-pointed at it (run restores fault's process-wide value on exit).
// Serving parses no SQL, so the parser stays as it is. An untraced run
// serves with ins.
func servingInstruments(ins *obs.Instruments, st *store.Store, tracePath string) *obs.Instruments {
	if tracePath == "" {
		return ins
	}
	served := *ins
	served.Events = obs.NewEventRecorder(obs.DefaultEventCapacity, nil)
	fault.Instrument(&served)
	if st != nil {
		st.Instrument(&served)
	}
	return &served
}

// repairDetail compresses a repair report into the structured degradation
// /readyz serves while a repaired store is up — the one-line summary plus
// one row per shard the repair touched; nil for a no-op repair.
func repairDetail(rep *store.RepairReport) *server.Degradation {
	if rep.Clean() {
		return nil
	}
	d := &server.Degradation{
		Detail: fmt.Sprintf("store repaired: kept %d entries / %d databases, lost %d entries / %d databases",
			rep.EntriesKept, rep.DatabasesKept, rep.EntriesLost, rep.DatabasesLost),
	}
	for _, sh := range rep.Shards {
		d.Shards = append(d.Shards, server.ShardDegradation{
			Shard: sh.Shard, Lost: sh.EntriesLost, Salvaged: sh.EntriesKept, Detail: "repaired",
		})
	}
	return d
}

// attachQueryIndexes feeds the server's /api/query engine the secondary
// indexes of the benchmark st last saved or loaded. Call after
// SetEntryETags — the manifest hashes are how the engine resolves index
// postings to rows.
func attachQueryIndexes(srv *server.Server, st *store.Store) error {
	idx, err := st.LoadIndexes()
	if err != nil {
		return err
	}
	vidx := make(map[string]vql.Index, len(idx))
	for f, ix := range idx {
		vidx[f] = ix
	}
	return srv.SetQueryIndexes(vidx)
}

// replicaDegradation folds a replicated store's failover state into the
// degradation /readyz serves: which shards are read from a non-primary
// replica, and each replica's self-check health. Returns d unchanged
// (possibly nil) when every replica is healthy and nothing failed over.
func replicaDegradation(st *store.Store, d *server.Degradation) *server.Degradation {
	failed := st.FailedOver()
	health := st.ReplicaHealth()
	unhealthy := false
	for _, rh := range health {
		if !rh.Healthy {
			unhealthy = true
		}
	}
	if len(failed) == 0 && !unhealthy {
		return d
	}
	if d == nil {
		d = &server.Degradation{}
	}
	d.FailedOver = failed
	d.Replicas = d.Replicas[:0]
	for _, rh := range health {
		d.Replicas = append(d.Replicas, server.ReplicaHealth{
			Replica: fmt.Sprintf("r%d", rh.Replica), Healthy: rh.Healthy, BadShards: rh.BadShards,
		})
	}
	return d
}

// serveStore is the -store load path: reconstruct the benchmark from disk
// (no corpus, no synthesis), print its shape, and optionally export or
// serve it with the manifest's content hashes as cache validators. When a
// strict load fails on a sharded store, a serving run falls back to
// LoadPartial — the healthy shards keep serving, and /readyz names the
// shards that did not (on top of any repair degradation already noted).
// On a replicated store, shard reads that failed over to a replica are
// reported the same way.
func serveStore(ctx context.Context, st *store.Store, w io.Writer, out string, vega bool, serve string, degraded *server.Degradation, ins *obs.Instruments, tracePath string, scrubIvl time.Duration) error {
	b, m, err := st.Load()
	if err != nil {
		if serve == "" {
			return err
		}
		strictErr := err
		var fails []store.ShardFailure
		b, m, fails, err = st.LoadPartial()
		if err != nil {
			return err
		}
		if len(fails) == 0 {
			// Strict load failed, yet the partial retry lost no shard: a
			// transient read fault, not damage; nothing partial loading
			// can add.
			return strictErr
		}
		if degraded == nil {
			degraded = &server.Degradation{}
		}
		lost := 0
		for _, f := range fails {
			lost += f.EntriesLost
			degraded.Shards = append(degraded.Shards, server.ShardDegradation{
				Shard: f.Shard, Lost: f.EntriesLost, Detail: f.Err.Error(),
			})
			fmt.Fprintf(w, "shard %s unavailable (%d entries): %v\n", f.Shard, f.EntriesLost, f.Err)
		}
		if degraded.Detail == "" {
			degraded.Detail = fmt.Sprintf("partial load: %d shards unavailable, %d entries lost", len(fails), lost)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "loaded store %s: %d vis objects, %d (nl, vis) pairs, %d database payloads\n\n",
		st.Dir(), len(b.Entries), b.NumPairs(), len(m.Databases))
	bench.WriteTable3(w, b.Table3(), len(b.Entries), b.NumPairs())
	fmt.Fprintln(w)
	bench.WriteFigure10(w, b.TypeHardnessMatrix())

	if out != "" {
		if err := export(b, out, vega, ins); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", out)
	}
	if err := writeTrace(tracePath, ins.Events); err != nil {
		return err
	}
	degraded = replicaDegradation(st, degraded)
	if fo := st.FailedOver(); len(fo) > 0 {
		fmt.Fprintf(w, "\n%d shard(s) failed over to a replica: %v (run -scrub to heal the primary)\n", len(fo), fo)
	}
	if serve != "" {
		return serveBenchmark(ctx, w, serve, b, st, m, degraded, servingInstruments(ins, st, tracePath), scrubIvl)
	}
	return nil
}

// serveBenchmark serves b on addr until ctx is canceled. m is the manifest
// of the store st that b was saved to or loaded from, nil for a build that
// was not saved: with it the server answers with the manifest's content
// hashes as cache validators, reports the shards each query reads, uses
// the store's query indexes, and — when scrubIvl > 0 — runs a
// background anti-entropy scrubber that re-heals the store and refreshes
// /readyz while serving.
func serveBenchmark(ctx context.Context, w io.Writer, addr string, b *bench.Benchmark, st *store.Store, m *store.Manifest, degraded *server.Degradation, ins *obs.Instruments, scrubIvl time.Duration) error {
	fmt.Fprintf(w, "\nserving benchmark browser on %s\n", addr)
	cfg := server.DefaultConfig()
	cfg.Obs = ins
	srv := server.NewWithConfig(b, cfg)
	srv.SetDegraded(degraded)
	shardCount, replicaCount := 0, 0
	if m != nil {
		shardCount, replicaCount = m.ShardCount, m.ReplicaCount
		if err := srv.SetEntryETags(m.EntryHashes()); err != nil {
			return err
		}
		if err := srv.SetEntryShards(m.EntryShards()); err != nil {
			return err
		}
		if err := attachQueryIndexes(srv, st); err != nil {
			return err
		}
		if scrubIvl > 0 {
			t := time.NewTicker(scrubIvl)
			defer t.Stop()
			// Return only once the scrubber has stopped writing to the store.
			scrubCtx, stop := context.WithCancel(ctx)
			scrubbed := make(chan struct{})
			defer func() { stop(); <-scrubbed }()
			go func() {
				defer close(scrubbed)
				st.RunScrubber(scrubCtx, t.C, func(rep *store.ScrubReport, err error) {
					if err != nil {
						log.Printf("background scrub: %v", err)
						return
					}
					if !rep.Clean() {
						log.Printf("background scrub: repaired %d artifact copies, %d moved aside, %d unrecoverable",
							len(rep.Repaired), len(rep.MovedAside), len(rep.Unrecoverable))
					}
					srv.SetDegraded(replicaDegradation(st, nil))
				})
			}()
		}
	}
	obs.PublishBuildInfo(ins.Metrics, shardCount, replicaCount)
	return srv.Run(ctx, addr)
}

// corpusFromCSV loads one CSV table and auto-generates (nl, sql) pairs over
// it, producing a single-database corpus.
func corpusFromCSV(path, table string, nPairs int, seed int64) (*spider.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tbl, err := dataset.FromCSV(table, f)
	if err != nil {
		return nil, err
	}
	db := &dataset.Database{Name: table + "_db", Domain: "Custom", Tables: []*dataset.Table{tbl}}
	pairs, err := spider.GeneratePairsFor(db, nPairs, seed, 0)
	if err != nil {
		return nil, err
	}
	return &spider.Corpus{Databases: []*dataset.Database{db}, Pairs: pairs}, nil
}

func printHist(w io.Writer, label string, h *stats.Histogram, names []string) {
	fmt.Fprintf(w, " %s:", label)
	for i, n := range h.Counts {
		name := fmt.Sprintf("b%d", i)
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(w, " %s=%d", name, n)
	}
	fmt.Fprintln(w)
}

// exportedEntry is the JSON shape of one benchmark record.
type exportedEntry struct {
	ID       int             `json:"id"`
	Database string          `json:"database"`
	Domain   string          `json:"domain"`
	Hardness string          `json:"hardness"`
	Chart    string          `json:"chart"`
	VQL      string          `json:"vql"`
	NLs      []string        `json:"nl_queries"`
	VegaLite json.RawMessage `json:"vega_lite,omitempty"`
}

// export writes the entries as JSON, with withVega each with its Vega-Lite
// spec, rendered as render stage operations under one op ID.
func export(b *bench.Benchmark, path string, withVega bool, ins *obs.Instruments) error {
	ctx, _ := ins.NewOp(context.Background())
	var entries []exportedEntry
	for _, e := range b.Entries {
		ee := exportedEntry{
			ID:       e.ID,
			Database: e.DB.Name,
			Domain:   e.DB.Domain,
			Hardness: e.Hardness.String(),
			Chart:    e.Chart.String(),
			VQL:      e.Vis.String(),
			NLs:      e.NLs,
		}
		if withVega {
			t := ins.Begin(ctx, obs.LayerBench, obs.StageRender)
			spec, err := render.VegaLite(e.DB, e.Vis)
			if err != nil {
				t.End("error", "error", err.Error())
			} else {
				t.End("ok")
				ee.VegaLite = spec
			}
		}
		entries = append(entries, ee)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(entries)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
