// Command benchmark is the repository's measuring instrument: six
// workloads that drive the two paths users pay for — cmd/repro
// regenerating the evaluation, and a cmd/serve request over loopback
// HTTP — as black boxes, plus fixed-size probes of every module's public
// functions. See README.md in this directory.
//
// Usage (from the checkout root, through benchmark/run.sh):
//
//	run.sh --workload serve_miss --seed 1 --seconds 10 --trace 0   one run, end-to-end metrics
//	run.sh --workload serve_miss --seed 1 --seconds 10 --trace 1   one run, per-layer metrics + Chrome trace
//	run.sh -record benchmark/out/a.json                            every workload, interleaved rounds
//	run.sh -compare a.json b.json                                  verdict per workload and metric
//	run.sh -manifest                                               print BENCHMARK.json
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 1 when
// an output check failed and 2 when the run could not be made at all (in
// which case no result line is printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed for every generated input (same seed, same inputs)")
		seconds  = flag.Float64("seconds", float64(runSeconds), "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans on, Chrome trace under benchmark/out")
		smoke    = flag.Bool("smoke", false, "run at 1/50 of every workload's size (self-test scale; numbers mean nothing)")
		detail   = flag.String("detail", "", "also write the run's full detail (per-round inputs of -record) to this JSON file")
		record   = flag.String("record", "", "run every workload in interleaved rounds plus one traced run each and write the record to this file")
		compare  = flag.Bool("compare", false, "compare two records: -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this program declares it")
	)
	flag.Parse()

	// Every exit path below returns through here, so a server started by
	// a workload is stopped and reaped whatever happened.
	defer stopAllChildren()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		stopAllChildren()
		os.Exit(2)
	}()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two record files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *record != "":
		return recordAll(*record, *seed, *seconds, *smoke)
	}

	scale := 1.0
	if *smoke {
		scale = smokeScale
	}
	correct, err := runOnce(*workload, *seed, *seconds, *trace, scale, *detail)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	case !correct:
		return 1
	}
	return 0
}

// runOnce is one invocation under the driver's contract: run one
// workload, print the report and, last, the result line.
func runOnce(name string, seed int64, seconds float64, trace int, scale float64, detailPath string) (correct bool, err error) {
	w, ok := findWorkload(name)
	if !ok {
		return false, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return false, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	e, err := newEnv(".", seed, scale)
	if err != nil {
		return false, err
	}
	o, err := runWorkload(e, w, seconds, trace == 1)
	if err != nil {
		return false, err
	}
	res, err := o.result(trace == 1)
	if err != nil {
		return false, err
	}
	o.print(os.Stdout, res)
	if detailPath != "" {
		if err := writeJSONFile(detailPath, o.detail(res)); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", line)
	return res.Correct, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the result line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one. A declared
// metric that was not measured is an error, not a silent gap.
func (o runOutcome) result(traced bool) (result, error) {
	res := result{Correct: o.m.failed == 0, Attempted: o.m.attempted, Failed: o.m.failed,
		Metrics: make(map[string]metricValue)}
	defs, values := endToEnd, o.endToEndValues()
	if traced {
		defs, values = perLayer, o.layer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s was not measured (%v)", o.workload, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				return res, fmt.Errorf("%s: measured %s, which BENCHMARK.json does not declare", o.workload, name)
			}
		}
	}
	return res, nil
}

// print writes the human-readable report of one run.
func (o runOutcome) print(w *os.File, res result) {
	fmt.Fprintf(w, "workload %s  seed %d  clients=connections=workers %d  operations %d (latency samples %d)  failed %d\n",
		o.workload, o.seed, o.clients, o.m.attempted, len(o.m.latencies), o.m.failed)
	fmt.Fprintf(w, "host: build %.2f s (excluded from setup_s)  calibration %.2f ms before, %.2f ms after\n",
		o.buildS, o.calibMS[0], o.calibMS[1])
	for _, name := range sortedKeys(res.Metrics) {
		note := ""
		if name == "p99_ms" && len(o.m.latencies) < minTailSamples {
			note = fmt.Sprintf("  (%d samples: no tail to measure, this repeats p50_ms)", len(o.m.latencies))
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s%s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit, note)
	}
	// The issue's names that the result line cannot carry — a metric there
	// may never read 0 and has no absolute bound — are derived here and
	// held to 0 by the exit code and by -compare.
	fmt.Fprintf(w, "  %-34s %16.6g %%  (%d of %d operations; must be 0)\n", "fail_pct",
		100*float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if o.sim {
		stable := 0
		if res.Correct {
			stable = 1
		}
		fmt.Fprintf(w, "  %-34s %16.6g s  (p50_ms / 1000: an operation is one whole run)\n", "wall_s", o.endToEndValues()["p50_ms"]/1e3)
		fmt.Fprintf(w, "  %-34s %16d    (every run wrote the expected bytes; must be 1)\n", "output_stable", stable)
	}
	for _, k := range sortedKeys(o.m.detail) {
		fmt.Fprintf(w, "  observed %-25s %16.6g\n", k, o.m.detail[k])
	}
	for _, k := range sortedKeys(o.m.exact) {
		fmt.Fprintf(w, "  exact %-28s %s\n", k, o.m.exact[k])
	}
	for _, f := range o.m.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if o.traceFile != "" {
		fmt.Fprintf(w, "trace: %s\n%s", o.traceFile, o.layerTable)
	}
}

// runDetail is one run as -record stores it.
type runDetail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Clients  int                `json:"clients"`
	Traced   bool               `json:"traced"`
	Result   result             `json:"result"`
	Samples  int                `json:"latency_samples"`
	SetupS   []float64          `json:"setup_s_each"`
	BuildS   float64            `json:"build_s"`
	CalibMS  [2]float64         `json:"calib_ms"`
	Observed map[string]float64 `json:"observed,omitempty"`
	Exact    map[string]string  `json:"exact,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

func (o runOutcome) detail(res result) runDetail {
	return runDetail{Workload: o.workload, Seed: o.seed, Clients: o.clients, Traced: o.layer != nil,
		Result: res, Samples: len(o.m.latencies), SetupS: o.setupS, BuildS: o.buildS, CalibMS: o.calibMS,
		Observed: o.m.detail, Exact: o.m.exact, Failures: o.m.failures}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
