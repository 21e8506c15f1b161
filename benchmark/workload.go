package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is what a workload is given: where the checkout is, how its inputs
// are seeded, and how large it runs.
type env struct {
	root string // checkout root (holds go.mod, cmd/, EXPERIMENTS.md)
	out  string // benchmark/out: stderr captures, traces, temp files
	seed int64
	// scale shrinks every workload for the self-tests (1 = the sizes the
	// README states; the -smoke flag and the tests use 1/50).
	scale float64
	// clients is the closed-loop caller count of the serve workloads,
	// equal to their connection count and the server's -workers.
	clients int
}

func (e env) full() bool { return e.scale >= 1 }

// scaled shrinks a count with the smoke scale, never below min.
func (e env) scaled(n, min int) int {
	if v := int(float64(n) * e.scale); v > min {
		return v
	}
	return min
}

// measurement is what one measuring interval of a workload produced.
type measurement struct {
	// latencies are per-operation client-observed seconds. What an
	// operation is differs per workload (a whole regeneration, one join,
	// one HTTP request, one Server.Do — of which the flood workload times
	// one call in eight) and is stated in the README.
	latencies []float64
	wall      time.Duration
	attempted int // operations started
	failed    int // operations that did not produce a correct answer
	// unitsPerOp is how many of the units req_per_s counts one operation
	// answers, when that is not one (24 experiments per suite
	// regeneration).
	unitsPerOp int
	// exact holds counts and output hashes that must repeat to the digit
	// on the same commit and seed.
	exact map[string]string
	// detail holds what the workload observed about single layers while
	// it ran (the server-reported queue/run split, memo hit ratio). It is
	// printed and recorded, not part of the metric contract.
	detail map[string]float64
	// failures are human-readable reasons, at most a handful.
	failures []string
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// note records a failed check that is not tied to one operation.
func (m *measurement) note(format string, args ...any) {
	if m.failed == 0 {
		m.failed = 1
	}
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) setExact(key, value string) {
	if m.exact == nil {
		m.exact = make(map[string]string)
	}
	m.exact[key] = value
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure drives the workload closed-loop for about d and returns
	// what it observed. tr is nil on the untraced run.
	measure(d time.Duration, tr *tracer, parent int) measurement
	// verify runs the output checks that need more than one response
	// (reference comparisons, counter sums) and books failures on m.
	verify(m *measurement)
	// peakRSSMB is the peak resident set of the process under test.
	peakRSSMB() (float64, error)
	// close releases everything set-up acquired; it must stop and reap
	// any process it started.
	close()
}

// workloadDef declares one workload. setup performs one complete set-up;
// the harness calls it setupReps times and reports the median as setup_s
// (millisecond-sized set-ups are repeated more often: their spread is the
// scheduler's, and only a larger sample steadies the median). sim marks
// the simulator workloads, where one operation is a whole run: their
// reports also carry wall_s and output_stable.
type workloadDef struct {
	name      string
	why       string
	sim       bool
	setupReps int
	setup     func(e env) (instance, error)
}

var workloads = []workloadDef{
	{"suite_sf100", "cmd/repro regenerating all 24 experiments at SF 100: every simulator layer in the proportion a reproducer pays; output must equal EXPERIMENTS.md", true, 25, setupSuite},
	{"htap_sf1000", "cmd/repro htap1 at the paper's SF 1000: update streams, merged scans and merges beside the reads; a delta gain shows here, a read-path gain that taxes writes shows as a loss", true, 25, setupHTAP},
	{"join_mat_sf2", "in-process materialised Q3 join at SF 2: the only workload where real rows flow (partitioning, cursors, filter/gather, hash table); checked against the reference join", true, 3, setupJoinMat},
	{"serve_miss", "cmd/serve over loopback HTTP, every spec distinct: 100% memo misses put decode, admit, queue, cluster build, fingerprint, engine and encode on the path; the engine dominates", false, 25, setupServeMiss},
	{"serve_hit", "same server and wire, 16 warmed specs: server work is microseconds, so HTTP, Decode and response encoding dominate; engine gains must show nothing here", false, 25, setupServeHit},
	{"serve_flood", "in-process Server.Do fed a seeded 2M-event trace, 64 submissions in flight: no wire, no engine; the one mutex, admission, fair queue, histograms and memo do all the work under contention", false, 3, setupFlood},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// selfPeakRSSMB is the benchmark's own high-water mark, the figure the
// in-process workloads report.
func selfPeakRSSMB() (float64, error) { return procStatusMB(os.Getpid(), "VmHWM") }

// defaultClients is min(nproc, 4): one closed-loop caller per core up to
// the server's default pool size.
func defaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// newEnv resolves the checkout layout and creates benchmark/out.
func newEnv(root string, seed int64, scale float64) (env, error) {
	for _, need := range []string{"go.mod", "cmd/repro", "cmd/serve", "EXPERIMENTS.md"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return env{}, fmt.Errorf("%s is not a checkout of the repository: %v", root, err)
		}
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return env{}, err
	}
	return env{root: root, out: out, seed: seed, scale: scale, clients: defaultClients()}, nil
}

// runOutcome is everything one invocation of one workload measured.
type runOutcome struct {
	workload   string
	sim        bool
	seed       int64
	clients    int
	m          measurement // the untraced interval: source of every end-to-end metric
	setupS     []float64
	rssMB      float64
	buildS     float64
	calibMS    [2]float64 // before and after the workload
	layer      map[string]float64
	traceFile  string
	layerTable string
}

// minTailSamples is how many latency samples a run needs before it has a
// 99th percentile worth the name: ten samples beyond it. A run with fewer
// (the simulator workloads time 3-6 whole runs) reports its median as
// p99_ms too — the contract wants the metric from every workload, and the
// slowest of three operations moves by a quarter when the host hiccups
// once. The report says so beside the number and -compare does not judge
// the row.
const minTailSamples = 1000

// endToEndValues derives the end-to-end metrics from the untraced
// interval.
func (o runOutcome) endToEndValues() map[string]float64 {
	lat := append([]float64(nil), o.m.latencies...)
	sort.Float64s(lat)
	tail := 99.0
	if len(lat) < minTailSamples {
		tail = 50
	}
	ok := o.m.attempted - o.m.failed
	units := o.m.unitsPerOp
	if units == 0 {
		units = 1
	}
	return map[string]float64{
		"setup_s":     median(o.setupS),
		"p50_ms":      percentile(lat, 50) * 1e3,
		"p99_ms":      percentile(lat, tail) * 1e3,
		"req_per_s":   float64(ok*units) / o.m.wall.Seconds(),
		"peak_rss_mb": o.rssMB,
	}
}

// calibrate times a fixed pure-CPU loop (no memory traffic, no system
// calls) and returns milliseconds. It runs before and after every
// workload: when the two readings disagree, the machine changed speed
// under the measurement and the run is flagged instead of trusted.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start)) / 1e6
}

var calibSink uint64

// runWorkload builds the programs under test, sets the workload up
// setupReps times, measures it, checks its outputs and — on a traced
// run — measures it again with spans on and runs every layer probe.
func runWorkload(e env, w workloadDef, seconds float64, traced bool) (runOutcome, error) {
	o := runOutcome{workload: w.name, sim: w.sim, seed: e.seed, clients: e.clients}
	build, err := buildBinaries(e.root)
	if err != nil {
		return o, err
	}
	o.buildS = build.Seconds()
	o.calibMS[0] = calibrate()

	var inst instance
	for i := 0; i < e.scaled(w.setupReps, 3); i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		if inst, err = w.setup(e); err != nil {
			return o, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	d := time.Duration(seconds * float64(time.Second))
	if traced {
		d /= 2 // the traced run measures twice: spans off, then spans on
	}
	o.m = inst.measure(d, nil, 0)
	if o.m.attempted == 0 {
		return o, fmt.Errorf("%s: nothing was measured", w.name)
	}
	inst.verify(&o.m)
	if o.rssMB, err = inst.peakRSSMB(); err != nil {
		return o, err
	}
	o.calibMS[1] = calibrate()

	if traced {
		tr := newTracer()
		root := tr.open(0, "benchmark", w.name)
		tm := inst.measure(d, tr, root)
		tr.close(root)
		o.layer = map[string]float64{
			"host.build_s":            o.buildS,
			"host.calib_ms":           (o.calibMS[0] + o.calibMS[1]) / 2,
			"host.calib_drift_pct":    100 * (o.calibMS[1] - o.calibMS[0]) / o.calibMS[0],
			"host.trace_overhead_pct": 100 * (median(tm.latencies) - median(o.m.latencies)) / median(o.m.latencies),
		}
		for k, v := range tm.exact {
			o.m.setExact(k, v)
		}
		if tm.failed > 0 {
			o.m.note("traced interval: %d failed (%v)", tm.failed, tm.failures)
		}
		if err := runProbes(e, tr, o.layer); err != nil {
			return o, err
		}
		o.traceFile = filepath.Join(e.out, "trace-"+w.name+".json")
		if err := tr.writeChrome(o.traceFile); err != nil {
			return o, err
		}
		o.layerTable = tr.layerTable()
		if err := os.WriteFile(filepath.Join(e.out, "layers-"+w.name+".txt"), []byte(o.layerTable), 0o644); err != nil {
			return o, err
		}
	}
	return o, nil
}
