// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -list                    list experiment IDs
//	repro -exp fig1a               run one experiment
//	repro -exp all                 run everything (in paper order)
//	repro -exp 'fig1*,table?'      run a comma-separated list of ID globs
//	repro -exp all -j 8            fan out over 8 workers
//	repro -exp fig3 -csv           emit the series as CSV instead of text
//	repro -exp fig3 -json          emit structured JSON (typed tables, no text blocks)
//	repro -exp fig3 -sf 50         override the figure 3-5 engine scale factor
//	repro -exp fig3 -sf 1000       paper-scale run (sharded across cores)
//	repro -exp all -md -o EXPERIMENTS.md   write the Markdown record
//	repro -exp all -bench-json     also write a BENCH_<date>.json snapshot
//	repro -exp all -bench-json -bench-o ci.json   snapshot to a chosen path
//	repro -exp htap1 -htap-rates 0,4,32    sweep the HTAP update stream (Mrows/s)
//	repro -exp fault1 -fault-seed 7        re-seed the fault1/fault2 fault plans
//	repro -exp fig3 -cpuprofile cpu.prof   capture a pprof CPU profile
//
// Experiments run concurrently on a bounded worker pool (one private
// simulation engine each); output is always printed in paper order and is
// byte-identical to a serial run. Within each experiment, independent
// grid points (cluster sizes x concurrency levels, selectivity values)
// additionally shard across -shards workers — also without changing a
// byte of output. Identical engine joins are memoized across
// experiments (fig3/fig4/fig5, fig7a/fig8, fig7b/fig9 share
// simulations); disable with -cache=false.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/pstore"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tpch"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment IDs or globs (or 'all'); known: "+strings.Join(experiments.IDs(), " "))
		list       = flag.Bool("list", false, "list experiment ids")
		csv        = flag.Bool("csv", false, "emit series as CSV")
		md         = flag.Bool("md", false, "emit Markdown (EXPERIMENTS.md format)")
		jsonOut    = flag.Bool("json", false, "emit structured JSON (one entry per experiment)")
		out        = flag.String("o", "", "write output to file instead of stdout")
		workers    = flag.Int("j", 0, "parallel workers (default GOMAXPROCS)")
		failFast   = flag.Bool("fail-fast", false, "abort on first experiment failure")
		times      = flag.Bool("times", false, "print per-experiment wall times (and cache and kernel stats) to stderr")
		sf         = flag.Float64("sf", 0, "TPC-H scale factor for the figure 3-5 engine runs (default 100; the paper's is 1000)")
		conc       = flag.String("conc", "", "comma-separated concurrency levels for fig3/fig4 (default 1,2,4)")
		cache      = flag.Bool("cache", true, "memoize identical engine joins across experiments")
		shards     = flag.Int("shards", 0, "intra-experiment shard workers for engine-backed figures (0 = GOMAXPROCS, 1 = serial)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
		benchOut   = flag.Bool("bench-json", false, "write a machine-readable BENCH_<date>.json perf snapshot of the run")
		benchPath  = flag.String("bench-o", "", "snapshot path for -bench-json (default BENCH_<date>.json)")
		benchForce = flag.Bool("bench-force", false, "allow -bench-json to overwrite an existing snapshot file")
		batchRows  = flag.Int("batch-rows", 0, "tuples per exchange batch for the engine figures (0 = default 200000; clamped at the engine maximum)")
		htapRates  = flag.String("htap-rates", "", "comma-separated update-stream rates for htap1, in Mrows/s (default 0,2,8,16; first rate is the normalization baseline)")
		faultSeed  = flag.Int64("fault-seed", 0, "seed for the fault1/fault2 fault plans (0 = default 1; same seed + cluster = same plan)")
	)
	flag.Parse()

	// fatal flushes the CPU profile (os.Exit skips defers) before exiting;
	// StopCPUProfile is a no-op when profiling never started.
	fatal := func(code int, v any) {
		fmt.Fprintln(os.Stderr, v)
		pprof.StopCPUProfile()
		os.Exit(code)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *sf < 0 || math.IsNaN(*sf) || math.IsInf(*sf, 0) {
		fmt.Fprintf(os.Stderr, "repro: -sf must be a positive, finite number (0 = default), got %v\n", *sf)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "repro: -j must be >= 0 (0 = GOMAXPROCS), got %d\n", *workers)
		os.Exit(2)
	}
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "repro: -shards must be >= 0 (0 = GOMAXPROCS), got %d\n", *shards)
		os.Exit(2)
	}
	if *batchRows < 0 {
		fmt.Fprintf(os.Stderr, "repro: -batch-rows must be >= 0 (0 = default), got %d\n", *batchRows)
		os.Exit(2)
	}
	// Catch a directory -bench-o up front: the snapshot is written after
	// the run, and a bad path must not waste an hours-long session.
	if *benchPath != "" {
		if fi, err := os.Stat(*benchPath); err == nil && fi.IsDir() {
			fmt.Fprintf(os.Stderr, "repro: -bench-o %s is a directory, want a snapshot file path (e.g. %s)\n", *benchPath, filepath.Join(*benchPath, "BENCH_2026-01-01.json"))
			os.Exit(2)
		}
	}
	expOpts := experiments.Options{SF: tpch.ScaleFactor(*sf), Shards: *shards, BatchRows: *batchRows, FaultSeed: *faultSeed}
	if *conc != "" {
		for _, f := range strings.Split(*conc, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || k <= 0 {
				fmt.Fprintf(os.Stderr, "repro: bad -conc value %q (want a positive integer)\n", f)
				os.Exit(2)
			}
			if n := len(expOpts.Concurrency); n > 0 {
				switch prev := expOpts.Concurrency[n-1]; {
				case k == prev:
					fmt.Fprintf(os.Stderr, "repro: duplicate -conc level %d\n", k)
					os.Exit(2)
				case k < prev:
					fmt.Fprintf(os.Stderr, "repro: -conc levels must be in increasing order, got %d after %d\n", k, prev)
					os.Exit(2)
				}
			}
			expOpts.Concurrency = append(expOpts.Concurrency, k)
		}
	}
	if *htapRates != "" {
		for _, f := range strings.Split(*htapRates, ",") {
			m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
				fmt.Fprintf(os.Stderr, "repro: bad -htap-rates value %q (want a non-negative Mrows/s number)\n", f)
				os.Exit(2)
			}
			expOpts.HTAPRates = append(expOpts.HTAPRates, m*1e6)
		}
	}
	var joinCache *pstore.Cache
	if *cache {
		joinCache = pstore.NewCache(nil)
		expOpts.Joins = joinCache
	}

	// Flags are validated; start profiling just before real work so a
	// usage error can no longer truncate the profile.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	patterns := strings.Split(*exp, ",")
	for i := range patterns {
		patterns[i] = strings.TrimSpace(patterns[i])
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	events0 := sim.TotalEvents()
	start := time.Now()
	results, err := runner.RunIDs(patterns, runner.Options{Workers: *workers, FailFast: *failFast, Exp: expOpts})
	wall := time.Since(start)
	if results == nil && err != nil {
		// Selection failed (unknown ID / bad glob) — nothing ran.
		fatal(2, err)
	}

	w := os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			fatal(1, ferr)
		}
		defer f.Close()
		w = f
	}

	var werr error
	switch {
	case *md:
		werr = report.WriteMarkdown(w, results)
	case *jsonOut:
		werr = report.WriteJSON(w, results)
	case *csv:
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			for _, s := range r.Result.Series {
				fmt.Fprintf(w, "# %s\n%s\n", s.Title, report.SeriesCSV(s))
			}
		}
	default:
		werr = report.WriteText(w, results)
	}
	if werr != nil {
		fatal(1, werr)
	}

	if *times {
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "%-10s %8.1f ms\n", r.Experiment.ID, float64(r.Wall.Microseconds())/1000)
		}
		if joinCache != nil {
			s := joinCache.Stats()
			fmt.Fprintf(os.Stderr, "join cache: %d requests, %d hits, %d engine runs\n",
				s.Requests(), s.Hits, s.Misses)
		}
		k := sim.TotalStats()
		fmt.Fprintf(os.Stderr, "kernel: %d events = %d coroutine resumes + %d own-resume continues + %d callbacks; heap high-water %d\n",
			k.Events, k.Resumes, k.Continues, k.Callbacks, k.HeapHigh)
	}
	if *benchOut {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		path, berr := writeBenchSnapshot(benchInputs{
			results: results, wall: wall,
			events: sim.TotalEvents() - events0,
			allocs: ms1.Mallocs - ms0.Mallocs,
			bytes:  ms1.TotalAlloc - ms0.TotalAlloc,
			sf:     *sf, workers: *workers, shards: *shards,
			cache: joinCache, path: *benchPath, force: *benchForce,
		})
		if berr != nil {
			fatal(1, berr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			fatal(1, ferr)
		}
		runtime.GC() // materialize up-to-date heap statistics
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fatal(1, werr)
		}
		f.Close()
	}
	if err != nil {
		fatal(1, err)
	}
}

// benchInputs carries the measurements of one run into the snapshot
// writer.
type benchInputs struct {
	results []runner.Result
	wall    time.Duration
	events  uint64
	allocs  uint64
	bytes   uint64
	sf      float64
	workers int
	shards  int
	cache   *pstore.Cache
	path    string
	force   bool
}

// writeBenchSnapshot writes the bench.Snapshot for one run (default path
// BENCH_<YYYY-MM-DD>.json in the working directory) and returns the
// path. Worker and shard pool sizes are recorded as the EFFECTIVE values
// the run used — a 0 flag resolves to GOMAXPROCS exactly as the pools
// do — so two snapshots are comparable without knowing each flag's
// default. An existing file is never silently overwritten
// (bench.Snapshot.WriteFile); use -bench-o / -bench-force.
func writeBenchSnapshot(in benchInputs) (string, error) {
	effective := func(v int) int {
		if v <= 0 {
			return runtime.GOMAXPROCS(0)
		}
		return v
	}
	snap := bench.Snapshot{
		Date:             time.Now().Format("2006-01-02"),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		SF:               in.sf,
		Workers:          effective(in.workers),
		Shards:           effective(in.shards),
		Cached:           in.cache != nil,
		SuiteWallSeconds: in.wall.Seconds(),
		Events:           in.events,
		Allocs:           in.allocs,
		AllocBytes:       in.bytes,
	}
	if s := in.wall.Seconds(); s > 0 {
		snap.EventsPerSec = float64(in.events) / s
	}
	if in.events > 0 {
		snap.AllocsPerEvent = float64(in.allocs) / float64(in.events)
		snap.AllocBytesPerEvent = float64(in.bytes) / float64(in.events)
	}
	if in.cache != nil {
		s := in.cache.Stats()
		snap.CacheRequests, snap.CacheHits, snap.CacheMisses = s.Requests(), s.Hits, s.Misses
	}
	for _, r := range in.results {
		be := bench.Experiment{ID: r.Experiment.ID, WallMS: float64(r.Wall.Microseconds()) / 1000}
		if r.Err != nil {
			be.Error = r.Err.Error()
		}
		snap.Experiments = append(snap.Experiments, be)
	}
	path := in.path
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}
	return path, snap.WriteFile(path, in.force)
}
