// Command nvperf is the repository's benchmark. It runs one seeded
// workload of the NL2VIS synthesizer and its serving stack on generated
// Spider-like corpora (40 databases, 16 pairs per database, at most 2,000
// rows per table; seed 1 is the reference corpus of EXPERIMENTS.md),
// checks every output, and prints one JSON result as its last line:
//
//	nvperf --workload build|serve --seed N --seconds S --trace 0|1
//	nvperf -compare old.txt new.txt
//
// From the repository root, bash nvperf/run.sh builds it and passes its
// arguments on. go test in this directory runs every workload briefly and
// checks the output against BENCHMARK.json.
//
// The workloads stress different layers:
//
//   - build: back-to-back cold bench.Build calls, in memory, one worker.
//     Synthesis (core, dataset, deepeye, nledit) does the work.
//   - serve: one closed-loop in-process client sends a seeded route mix
//     through server.ServeHTTP to three servers, each over a store-loaded
//     benchmark of its own corpus. The server, render, vql and obs layers
//     do the work.
//
// With --trace 0 the end-to-end metrics are reported. Their times are CPU
// time of the whole process (user and system, all threads, so the garbage
// collector's share too), not wall time, put on a reference scale. On the
// shared virtual machine the benchmark was tuned on, wall times swung by
// tens of percent from minute to minute: the host took up to a fifth of
// the vCPUs' time, and a disk flush took from a few to a hundred
// milliseconds. CPU time leaves out both, but not the host's own speed,
// which moved the median CPU time of a build by a third between runs
// minutes apart. So the run times a fixed reference work (ref.go) between
// its operations and reports each operation's CPU time times 1 ms over the
// reference round's CPU time nearby: the time the operation would take on
// a host where one reference round takes 1 ms. The unscaled medians go to
// standard error.
//
// With --trace 1 a separate run records spans, in wall time, around the
// benchmark's calls into each layer and reports per-layer metrics; layers a
// workload does not exercise read 0. The spans are written to a Chrome
// trace file when the run ends. -compare prints per-layer deltas between
// two saved outputs, with the end-to-end metrics each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(1)
	}
}

// setupsPerRun is how many times a run sets its workload up; setup_s is the
// median, since one set-up's time swings more than any other figure.
const setupsPerRun = 3

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	workdir   string // scratch space for stores, removed when the run ends
	traceFile string
}

// metricDef names one reported metric and its unit. A per-layer metric
// also says what it should move and which workloads measure it.
type metricDef struct {
	name, unit string
	layerGroup
}

// endToEnd are the metrics of a --trace 0 run, reported by every workload:
// the median scaled CPU time of a set-up and of an operation (one corpus
// build, one request), work per scaled CPU-second (source pairs, requests;
// the median over builds, or over batches of requests), the live heap
// (the median over builds, each measured right after one; serve's at the
// end), and the share of operations whose output passed its check.
var endToEnd = []metricDef{
	{"setup_s", "s", layerGroup{}},
	{"op_scaled_p50_ms", "ms", layerGroup{}},
	{"throughput_scaled_per_s", "1/s", layerGroup{}},
	{"heap_mb", "MB", layerGroup{}},
	{"ok_ratio", "ratio", layerGroup{}},
}

// serveRoutes are the request classes of the serve mix, in report order.
var serveRoutes = []string{"api_entry", "vega", "entry_html", "revalidate", "query_indexed", "query_scan", "entries", "index"}

// layerGroup says what a group of per-layer metrics should move and which
// workloads' traced runs measure it.
type layerGroup struct {
	moves string   // the end-to-end metrics it should move, and where
	on    []string // the workloads that measure it; the others report 0
}

var (
	onBuild = []string{"build"}
	onServe = []string{"serve"}
	onAll   = []string{"build", "serve"}

	buildSetup  = layerGroup{"setup_s on build", onBuild}
	buildParse  = layerGroup{"setup_s, heap_mb on build", onBuild}
	buildOp     = layerGroup{"op_scaled_p50_ms, throughput_scaled_per_s on build", onBuild}
	buildHeap   = layerGroup{"op_scaled_p50_ms, heap_mb on build", onBuild}
	serveSetup  = layerGroup{"setup_s on serve", onServe}
	serveOp     = layerGroup{"op_scaled_p50_ms, throughput_scaled_per_s on serve", onServe}
	genFailures = layerGroup{"setup_s on build", onAll}
	// serve saves its stores before it starts timing, so the store's write
	// path moves no end-to-end metric.
	storeSave = layerGroup{"none (serve saves its stores before timing)", onServe}
)

// perLayer are the metrics of a --trace 1 run. Times ending in _ms are per
// operation of the workload (one corpus build, one set-up, one store save)
// unless the name says p50 or p99.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"deepeye.train_ms", "ms", buildSetup},
		{"spider.generate_ms", "ms", buildSetup},
		{"spider.generate_failures", "count", genFailures},
		{"sqlparser.parse_us_p50", "us", buildSetup},
		{"sqlparser.calls", "count", buildSetup},
		{"core.candidates_ms", "ms", buildOp},
		{"core.candidates_per_pair", "count", buildOp},
		{"dataset.execute_ms", "ms", buildOp},
		{"dataset.execute_calls", "count", buildOp},
		{"dataset.execute_us_p50", "us", buildOp},
		{"deepeye.featurize_ms", "ms", buildOp},
		{"deepeye.rules_ms", "ms", buildOp},
		{"deepeye.classify_ms", "ms", buildOp},
		{"deepeye.kept_ratio", "ratio", buildOp},
		{"nledit.variants_ms", "ms", buildOp},
		{"nledit.variants_per_vis", "count", buildOp},
		{"bench.build_ms", "ms", buildOp},
		{"bench.assembly_ms", "ms", buildOp},
		{"build.coverage_ratio", "ratio", buildOp},
		{"sqlparser.alloc_mb", "MB", buildParse},
		{"core.alloc_mb", "MB", buildHeap},
		{"dataset.alloc_mb", "MB", buildHeap},
		{"deepeye.alloc_mb", "MB", buildHeap},
		{"nledit.alloc_mb", "MB", buildHeap},
		{"store.open_ms", "ms", serveSetup},
		{"store.load_ms", "ms", serveSetup},
		{"store.load_indexes_ms", "ms", serveSetup},
		{"bench.table3_ms", "ms", serveSetup},
		{"vql.new_engine_ms", "ms", serveSetup},
		{"server.new_ms", "ms", serveSetup},
	}
	for _, r := range serveRoutes {
		defs = append(defs,
			metricDef{"server." + r + ".p50_us", "us", serveOp},
			metricDef{"server." + r + ".p99_us", "us", serveOp},
			metricDef{"server." + r + ".allocs_per_req", "count", serveOp},
			metricDef{"server." + r + ".resp_bytes", "bytes", serveOp})
	}
	return append(defs,
		metricDef{"serve.op_p99_ms", "ms", serveOp},
		metricDef{"serve.coverage_ratio", "ratio", serveOp},
		metricDef{"render.vegalite_us_p50", "us", serveOp},
		metricDef{"vql.query_indexed_us_p50", "us", serveOp},
		metricDef{"vql.query_scan_us_p50", "us", serveOp},
		metricDef{"vql.scanned_per_row", "ratio", serveOp},
		metricDef{"store.save_ms", "ms", storeSave},
		metricDef{"store.save_files", "count", storeSave},
		metricDef{"store.save_bytes", "bytes", storeSave},
		metricDef{"store.disk_bytes_per_entry", "bytes", storeSave},
	)
}()

// report is what a workload hands back: how many operations it attempted,
// how many failed their output check, and its metrics by name.
type report struct {
	attempted, failed int
	firstFailure      string
	metrics           map[string]float64
}

// check counts one checked operation; a non-nil err marks it failed.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = err.Error()
		}
	}
}

// finish sets the metrics every workload reports the same way.
func (r *report) finish(setups []time.Duration, heapMB float64) {
	r.metrics["setup_s"] = median(setups).Seconds()
	r.metrics["ok_ratio"] = float64(r.attempted-r.failed) / float64(max(r.attempted, 1))
	r.metrics["heap_mb"] = heapMB
}

// logUnscaled writes a run's unscaled median operation CPU time and its
// median reference round time to standard error.
func logUnscaled(durs []time.Duration, y *yardstick) {
	fmt.Fprintf(os.Stderr, "nvperf: unscaled op CPU p50 %.4f ms over %d ops; reference round p50 %.4f ms over %d samples\n",
		ms(median(durs)), len(durs), ms(median(y.samples)), len(y.samples))
}

// liveHeapMB is the live heap after a forced collection, with the
// workload's state still reachable.
func liveHeapMB(state any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(state)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nvperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: build or serve")
	seed := fs.Int64("seed", 1, "workload seed: corpora, route picks, entry IDs and query databases derive from it")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	workdir := fs.String("workdir", ".bench_build/nvperf-work", "scratch directory for stores (removed afterwards)")
	traceFile := fs.String("trace-file", "", "Chrome trace written by a traced run (default .bench_build/nvperf-trace-<workload>.json)")
	compare := fs.Bool("compare", false, "print per-layer deltas between the two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareResults(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		traceFile: *traceFile,
	}
	if cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(".bench_build", "nvperf-trace-"+cfg.workload+".json")
	}
	workloads := map[string]func(config, *tracer) (*report, error){
		"build": runBuild,
		"serve": runServe,
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want build or serve)", cfg.workload)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, cfg.workload+"-")
	if err != nil {
		return err
	}
	cfg.workdir = dir
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, err := fn(cfg, tr)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := tr.writeChrome(cfg.traceFile); err != nil {
			return err
		}
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		measures := !cfg.trace || slices.Contains(d.on, cfg.workload)
		switch {
		case ok && !measures:
			return fmt.Errorf("workload %s measured %s, which perLayer does not list for it", cfg.workload, d.name)
		case !ok && measures:
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rep.firstFailure != "" {
		fmt.Fprintf(os.Stderr, "nvperf: %d of %d operations failed their check; first: %s\n", rep.failed, rep.attempted, rep.firstFailure)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// readResult reads the last JSON line of a saved benchmark output.
func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		var r result
		if json.Unmarshal([]byte(lines[i]), &r) == nil && r.Metrics != nil {
			return &r, nil
		}
	}
	return nil, fmt.Errorf("%s: no result line", path)
}

// compareResults prints, per metric present in either output, the old and
// new values and the change as a share of the old value (its base).
func compareResults(w io.Writer, oldPath, newPath string) error {
	oldRes, err := readResult(oldPath)
	if err != nil {
		return err
	}
	newRes, err := readResult(newPath)
	if err != nil {
		return err
	}
	names := map[string]bool{}
	for n := range oldRes.Metrics {
		names[n] = true
	}
	for n := range newRes.Metrics {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	moves := map[string]string{}
	for _, d := range perLayer {
		moves[d.name] = d.moves
	}
	fmt.Fprintf(w, "%-36s %14s %14s %14s %9s  %-6s %s\n", "metric", "old", "new", "delta", "delta%", "unit", "moves")
	for _, n := range sorted {
		o, okOld := oldRes.Metrics[n]
		nw, okNew := newRes.Metrics[n]
		unit := o.Unit
		if !okOld {
			unit = nw.Unit
		}
		pct := "n/a"
		if okOld && okNew && o.Value != 0 {
			pct = strconv.FormatFloat(100*(nw.Value-o.Value)/o.Value, 'f', 1, 64) + "%"
		}
		fmt.Fprintf(w, "%-36s %14s %14s %14s %9s  %-6s %s\n", n, fmtOpt(o.Value, okOld), fmtOpt(nw.Value, okNew),
			fmtOpt(nw.Value-o.Value, okOld && okNew), pct, unit, moves[n])
	}
	return nil
}

func fmtOpt(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
