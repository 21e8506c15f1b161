package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/pstore"
	"repro/internal/workload"
)

// The fault experiments price the paper's missing robustness axis: the
// published figures measure clusters that never fail, but the energy
// cost of fault tolerance — retried queries, idle power burned during
// outages, work lost to stragglers — is part of the design space once
// node failure is the steady state. fault1 sweeps node MTTF and reports
// goodput and J/successful-query (retries included); fault2 sweeps
// straggler intensity and reports the tail-latency damage.

// faultRetry is the shared retry policy of both experiments: a deadline
// well above the healthy query time (so only genuine faults trip it),
// with capped exponential backoff.
var faultRetry = pstore.RetryPolicy{Timeout: 30, MaxRetries: 6, Backoff: 0.25, BackoffCap: 2}

// faultRun executes one faulted HTAP run on the fault experiments'
// fixed cluster (the paper's Figure 3 setup: 4x Cluster-V).
func faultRun(o Options, queries int, fcfg fault.Config) (workload.FaultedResult, error) {
	c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
	if err != nil {
		return workload.FaultedResult{}, err
	}
	return workload.RunFaulted(c, engineCfg(), workload.FaultedSpec{
		HTAP:   workload.HTAPSpec{SF: o.SF, Queries: queries},
		Faults: fcfg,
		Retry:  faultRetry,
	})
}

// quantile returns the q-quantile (nearest-rank) of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// Fault1 sweeps per-node MTTF under a crash/repair process: as nodes
// fail more often, queries are aborted and retried, goodput falls, and
// the energy bill per successful query climbs — idle power during
// outages and wasted attempts are both on the meter. The "none" run is
// the zero-fault baseline the series normalizes against; it reproduces
// the unfaulted workload exactly.
func Fault1(o Options) (Result, error) {
	o = o.withDefaults()
	const queries = 6
	type point struct {
		label string
		mttf  float64
	}
	grid := []point{{"none", 0}, {"mttf=40s", 40}, {"mttf=20s", 20}, {"mttf=10s", 10}}

	results, err := par.Map(o.Shards, grid, func(_ int, pt point) (workload.FaultedResult, error) {
		fcfg := fault.Config{}
		if pt.mttf > 0 {
			fcfg = fault.Config{Seed: o.FaultSeed, Horizon: 120, MTTF: pt.mttf, MTTR: 2}
		}
		r, err := faultRun(o, queries, fcfg)
		if err != nil {
			return workload.FaultedResult{}, fmt.Errorf("fault1 %s: %w", pt.label, err)
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	tbl := NewTable("mttf",
		"run", "makespan (s)", "goodput (q/s)", "ok", "failed", "retries",
		"crashes", "down (s)", "energy (kJ)", "J/good query").
		Header("%-10s %13s %14s %3s %7s %8s %8s %9s %12s %13s\n").
		Titled(fmt.Sprintf("Fault 1: availability and energy vs node MTTF (4x Cluster-V, SF %g, %dx Q3, MTTR 2s, seed %d)\n",
			float64(o.SF), queries, o.FaultSeed)).
		Footed("goodput counts successful queries only; J/good query includes energy spent on failed and retried attempts\n")
	var pts []power.Point
	for i, pt := range grid {
		r := results[i]
		tbl.Row("%-10s %13.2f %14.4f %3d %7d %8d %8d %9.2f %12.1f %13.1f\n",
			pt.label, r.Makespan, r.Goodput(), len(r.QuerySeconds), r.Failed, r.Retries,
			r.Faults.Crashes, r.DownSeconds, r.Joules/1e3, r.JoulesPerGoodQuery())
		pts = append(pts, power.Point{Label: pt.label, Seconds: r.Makespan, Joules: r.Joules})
	}
	s, err := metrics.NewSeries("Fault 1 — energy and makespan as MTTF shrinks", pts, grid[0].label)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "fault1", Title: "Fault tolerance: availability and energy vs node MTTF",
		Series: []metrics.Series{s}, Tables: []Table{*tbl}}, nil
}

// Fault2 sweeps straggler intensity: every node periodically limps at
// rate/factor for a few seconds. Nothing crashes and nothing retries —
// the damage shows up purely in the latency tail, which the max/p50
// column makes legible. The factor-1 ("none") run is the zero-fault
// baseline.
func Fault2(o Options) (Result, error) {
	o = o.withDefaults()
	const queries = 8
	type point struct {
		label  string
		factor float64
	}
	grid := []point{{"none", 0}, {"2x slow", 2}, {"4x slow", 4}, {"8x slow", 8}}

	results, err := par.Map(o.Shards, grid, func(_ int, pt point) (workload.FaultedResult, error) {
		fcfg := fault.Config{}
		if pt.factor > 0 {
			fcfg = fault.Config{Seed: o.FaultSeed, Horizon: 120,
				StragglerEvery: 5, StragglerSecs: 2, StragglerFactor: pt.factor}
		}
		r, err := faultRun(o, queries, fcfg)
		if err != nil {
			return workload.FaultedResult{}, fmt.Errorf("fault2 %s: %w", pt.label, err)
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	tbl := NewTable("stragglers",
		"run", "makespan (s)", "p50 (s)", "max (s)", "max/p50",
		"episodes", "retries", "energy (kJ)", "J/query").
		Header("%-10s %13s %8s %8s %8s %9s %8s %12s %8s\n").
		Titled(fmt.Sprintf("Fault 2: straggler intensity vs tail latency (4x Cluster-V, SF %g, %dx Q3, episode 2s every 5s/node, seed %d)\n",
			float64(o.SF), queries, o.FaultSeed)).
		Footed("a straggler divides one node's CPU/disk/NIC rates by the factor; queries limp through rather than fail\n")
	var pts []power.Point
	for i, pt := range grid {
		r := results[i]
		p50 := quantile(r.QuerySeconds, 0.5)
		max := quantile(r.QuerySeconds, 1.0)
		ratio := 0.0
		if p50 > 0 {
			ratio = max / p50
		}
		tbl.Row("%-10s %13.2f %8.3f %8.3f %8.2f %9d %8d %12.1f %8.1f\n",
			pt.label, r.Makespan, p50, max, ratio,
			r.Faults.Stragglers, r.Retries, r.Joules/1e3, r.JoulesPerGoodQuery())
		pts = append(pts, power.Point{Label: pt.label, Seconds: r.Makespan, Joules: r.Joules})
	}
	s, err := metrics.NewSeries("Fault 2 — energy and makespan as stragglers intensify", pts, grid[0].label)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "fault2", Title: "Fault tolerance: straggler intensity vs tail latency",
		Series: []metrics.Series{s}, Tables: []Table{*tbl}}, nil
}
