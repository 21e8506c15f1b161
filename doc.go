// Package repro is a from-scratch Go reproduction of "Towards
// Energy-Efficient Database Cluster Design" (Lang, Harizopoulos, Patel,
// Shah, Tsirogiannis; PVLDB 5(11), 2012).
//
// The module rebuilds the paper's two artifacts — the P-store parallel
// query execution kernel and the analytical performance/energy model of
// parallel hash joins — on top of a deterministic discrete-event cluster
// simulator, and regenerates every table and figure of the evaluation.
// An HTAP extension (internal/delta, experiments htap1/htap2) re-measures
// the energy trade-offs with a transactional write path — per-node delta
// stores, merged-view scans, background merges — contending with the
// analytics for the same simulated hardware; see README "The HTAP write
// path".
//
// Experiments are a typed API: each internal/experiments generator takes
// an Options (scale factor, concurrency levels, injectable
// pstore.JoinRunner) and returns a structured Result (series, typed
// tables, paper-vs-measured pairs). internal/report renders Results as
// text, Markdown or JSON, and a shared pstore.Cache memoizes identical
// engine joins across experiments.
//
// The workload-stream service mode (internal/service, cmd/serve) runs
// the same engine as a long-running service: JSON join/design requests
// on stdin or HTTP, a bounded worker pool with admission control
// (shed-on-overload), and the shared join cache answering repeated
// identical requests from memory. Every join takes one path (the
// service's memo, then the cache, then the engine) and runs once: the
// engine is deterministic, so there is nothing to retry.
// Per-request and aggregate reports are typed JSON
// (report.ServiceResponse, report.ServiceMetrics).
//
// The engine-backed figures run at the paper's scale factor 1000 with
// `cmd/repro -sf 1000` (and complete at SF 10000 on one machine): the
// internal/sim kernel runs simulated processes as runtime coroutines
// (iter.Pull, hence Go 1.23: one coroswitch pair per process resume and
// none when a process's own resume is next; a bottom-up binary event heap, an
// at-now FIFO fast path, zero steady-state allocations), the join data
// path is a lazy cursor pipeline end-to-end (storage.Cursor:
// selection-pushdown scans, per-destination routing and hash-table
// build/probe all pull batches one at a time, and the planner's estimate
// pre-sizes the open-addressing hash tables — README "The streaming data
// path"), and each experiment's simulation grid shards
// across workers (-shards) without changing a byte of output.
// `-cpuprofile`/`-memprofile` write pprof profiles of any run.
//
// A simulated cluster runs on exactly one sim.Engine (README "Why one
// engine"); real cores are used by -j and -shards. Performance has one
// measuring instrument, the benchmark/ module: CI's perf job records the
// base and the head revision on one runner and gates on its -compare
// verdicts, and the committed BENCH_<date>.json record pins what the
// suite simulates (README "Measuring performance").
//
// The determinism and resource invariants are machine-checked:
// cmd/repro-vet (internal/lint) is a stdlib-only go/analysis-style
// suite — nodeterm (no wall clocks, global rand, env reads or bare
// goroutines in simulated code), maporder (no map-iteration order in
// output), fingerprint (join-cache keys fingerprint by content) and
// cursorclose (scan cursors are closed or handed off). It runs as
// `go run ./cmd/repro-vet ./...`, and CI's analysis job keeps the tree
// at zero findings; suppressions require a written justification
// (README "Static analysis").
//
// Start with README.md for the tour and system inventory, and
// EXPERIMENTS.md for the generated paper-vs-measured record (regenerate
// with `go run ./cmd/repro -exp all -md -o EXPERIMENTS.md`; `-json`
// emits the machine-readable form). The benchmarks in this package
// (bench_test.go, ablation_bench_test.go) regenerate each experiment;
// the Suite benchmarks measure the serial baseline, the parallel
// runner's end-to-end speedup, intra-experiment sharding, and the join
// cache's hit rate:
//
//	go test -bench=. -benchmem
package repro
