package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/pstore"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Fig35SF is the default scale factor for the Figure 3-5 engine runs
// (the paper used 1000; normalized curves are scale-invariant, see the
// package comment). Override with Options.SF.
const Fig35SF = tpch.ScaleFactor(100)

// engineCfg is the engine configuration of every engine-backed
// experiment: a warm working set and 200k-row exchange batches.
func engineCfg() pstore.Config {
	return pstore.Config{WarmCache: true, BatchRows: 200_000}
}

// fig34Concurrency lists the simultaneous-query levels of the Figure 3/4
// sweeps, the paper's.
var fig34Concurrency = []int{1, 2, 4}

// runSizes runs the given join spec at each cluster size and concurrency
// level, returning one normalized series per concurrency level (the
// paper's subfigures (a)-(c)). The (concurrency, size) grid points are
// independent simulations, so they shard across o.Shards workers; the
// series are reassembled in grid order, byte-identical to a serial run.
func runSizes(o Options, title string, mkSpec func() pstore.JoinSpec, sizes []int, spec hw.Spec) ([]metrics.Series, error) {
	type point struct{ k, n int }
	var grid []point
	for _, k := range fig34Concurrency {
		for _, n := range sizes {
			grid = append(grid, point{k, n})
		}
	}
	pts, err := par.Map(o.Shards, grid, func(_ int, pt point) (power.Point, error) {
		c, err := cluster.New(cluster.Homogeneous(pt.n, spec))
		if err != nil {
			return power.Point{}, err
		}
		makespan, _, joules, err := o.Joins.RunConcurrent(c, engineCfg(), mkSpec(), pt.k)
		if err != nil {
			return power.Point{}, fmt.Errorf("%s n=%d k=%d: %w", title, pt.n, pt.k, err)
		}
		return power.Point{
			Label: fmt.Sprintf("%dN", pt.n), Seconds: makespan, Joules: joules,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []metrics.Series
	for i, k := range fig34Concurrency {
		s, err := metrics.NewSeries(fmt.Sprintf("%s — %d concurrent", title, k),
			pts[i*len(sizes):(i+1)*len(sizes)], fmt.Sprintf("%dN", sizes[0]))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig3 regenerates Figure 3: the partition-incompatible TPC-H Q3 dual-
// shuffle hash join (5% selectivity on both tables) on 4/6/8 cluster-V
// nodes at concurrency 1, 2, 4. Smaller clusters always consume less
// energy, and the savings grow with concurrency — but points stay above
// the EDP line.
func Fig3(o Options) (Result, error) {
	o = o.withDefaults()
	series, err := runSizes(o, "P-store dual-shuffle Q3 join",
		func() pstore.JoinSpec { return workload.Q3Join(o.SF, 0.05, 0.05, pstore.DualShuffle) },
		[]int{8, 6, 4}, hw.ClusterV())
	if err != nil {
		return Result{}, err
	}
	pairs := []metrics.Pair{
		{Metric: "1q: 4N performance", Paper: 0.62, Measured: series[0].Points[2].NormPerf},
		{Metric: "1q: 4N energy", Paper: 0.80, Measured: series[0].Points[2].NormEnerg},
		{Metric: "2q: 4N energy", Paper: 0.77, Measured: series[1].Points[2].NormEnerg},
		{Metric: "4q: 4N energy", Paper: 0.76, Measured: series[2].Points[2].NormEnerg},
	}
	return Result{ID: "fig3", Title: "P-store dual-shuffle join", Series: series, Pairs: pairs}, nil
}

// Fig4 regenerates Figure 4: the broadcast variant (ORDERS selectivity
// tightened to 1% so the full hash table fits on every node). Points lie
// ON the EDP line: the broadcast phase does not speed up with more nodes.
func Fig4(o Options) (Result, error) {
	o = o.withDefaults()
	series, err := runSizes(o, "P-store broadcast Q3 join",
		func() pstore.JoinSpec { return workload.Q3Join(o.SF, 0.01, 0.05, pstore.Broadcast) },
		[]int{8, 6, 4}, hw.ClusterV())
	if err != nil {
		return Result{}, err
	}
	pairs := []metrics.Pair{
		{Metric: "1q: 4N performance", Paper: 0.68, Measured: series[0].Points[2].NormPerf},
		{Metric: "1q: 4N energy", Paper: 0.72, Measured: series[0].Points[2].NormEnerg},
	}
	return Result{ID: "fig4", Title: "P-store broadcast join", Series: series, Pairs: pairs}, nil
}

// Fig5 regenerates Figure 5: half-cluster (4N) vs full-cluster (8N)
// energy for the three physical plans. Shuffle and broadcast joins save
// energy at half size; the perfectly partitioned plan is unchanged.
func Fig5(o Options) (Result, error) {
	o = o.withDefaults()
	type plan struct {
		name string
		mk   func() pstore.JoinSpec
	}
	plans := []plan{
		{"shuffle both tables", func() pstore.JoinSpec { return workload.Q3Join(o.SF, 0.05, 0.05, pstore.DualShuffle) }},
		{"broadcast small table", func() pstore.JoinSpec { return workload.Q3Join(o.SF, 0.01, 0.05, pstore.Broadcast) }},
		{"prepartitioned (no network)", func() pstore.JoinSpec { return workload.Q3JoinPrepartitioned(o.SF, 0.05, 0.05) }},
	}
	tbl := NewTable("summary", "plan", "8N time(s)", "4N time(s)", "energy ratio", "perf ratio").
		Header("%-28s %12s %12s %14s %12s\n")
	// The six (plan, size) runs are independent: shard them, then emit
	// table rows and pairs in plan order as before.
	sizes := []int{8, 4}
	type run struct {
		pl plan
		n  int
	}
	var grid []run
	for _, pl := range plans {
		for _, n := range sizes {
			grid = append(grid, run{pl, n})
		}
	}
	pts, err := par.Map(o.Shards, grid, func(_ int, r run) (power.Point, error) {
		c, err := cluster.New(cluster.Homogeneous(r.n, hw.ClusterV()))
		if err != nil {
			return power.Point{}, err
		}
		res, joules, err := o.Joins.RunJoin(c, engineCfg(), r.pl.mk())
		if err != nil {
			return power.Point{}, fmt.Errorf("%s n=%d: %w", r.pl.name, r.n, err)
		}
		return power.Point{Label: fmt.Sprintf("%dN", r.n), Seconds: res.Seconds, Joules: joules}, nil
	})
	if err != nil {
		return Result{}, err
	}
	var pairs []metrics.Pair
	var series []metrics.Series
	for pi, pl := range plans {
		s, err := metrics.NewSeries("Fig 5 — "+pl.name, pts[pi*len(sizes):(pi+1)*len(sizes)], "8N")
		if err != nil {
			return Result{}, err
		}
		series = append(series, s)
		half := s.Points[1]
		tbl.Row("%-28s %12.1f %12.1f %14.3f %12.3f\n",
			pl.name, s.Points[0].Seconds, half.Seconds, half.NormEnerg, half.NormPerf)
		switch pl.name {
		case "shuffle both tables":
			pairs = append(pairs, metrics.Pair{Metric: "shuffle: half-cluster energy", Paper: 0.82, Measured: half.NormEnerg})
		case "broadcast small table":
			pairs = append(pairs, metrics.Pair{Metric: "broadcast: half-cluster energy", Paper: 0.74, Measured: half.NormEnerg})
		case "prepartitioned (no network)":
			pairs = append(pairs, metrics.Pair{Metric: "prepartitioned: half-cluster energy", Paper: 1.00, Measured: half.NormEnerg})
		}
	}
	return Result{ID: "fig5", Title: "Join plan summary: half vs full cluster",
		Series: series, Tables: []Table{*tbl}, Pairs: pairs}, nil
}

// Table2 prints the single-node hardware configurations.
func Table2(Options) (Result, error) {
	tbl := NewTable("hardware", "System", "CPU (cores/thr)", "RAM", "Idle Power").
		Titled("Table 2: Hardware configuration of different systems\n").
		Header("%-26s %-18s %8s %12s\n")
	for _, s := range []hw.Spec{hw.WorkstationA(), hw.WorkstationB(), hw.DesktopAtom(), hw.LaptopA(), hw.LaptopBMicro()} {
		tbl.Row("%-26s (%d/%d) %17s %5.0f GB %8.0f W\n",
			s.Name, s.Cores, s.Threads, "", s.MemoryMB/1000, s.IdleWatts)
	}
	return Result{ID: "table2", Title: "Single-node system configurations", Tables: []Table{*tbl}}, nil
}

// Fig6 regenerates Figure 6: the single-node in-memory hash join (0.1M x
// 20M 100-byte tuples) on the five Table 2 systems. Laptop B consumes the
// least energy even though the workstations are faster.
func Fig6(o Options) (Result, error) {
	o = o.withDefaults()
	tbl := NewTable("microbench", "System", "time (s)", "energy (J)").
		Titled("Figure 6: single-node hash join (0.1M x 20M rows, 100 B tuples)\n").
		Header("%-26s %14s %14s\n")
	var pairs []metrics.Pair
	anchors := map[string][2]float64{
		hw.WorkstationA().Name: {13, 1300},
		hw.WorkstationB().Name: {15, 1100},
		hw.DesktopAtom().Name:  {48, 1650},
		hw.LaptopA().Name:      {38, 950},
		hw.LaptopBMicro().Name: {25, 800},
	}
	type outcome struct{ sec, j float64 }
	systems := hw.MicrobenchSystems()
	outs, err := par.Map(o.Shards, systems, func(_ int, s hw.Spec) (outcome, error) {
		sec, j, err := workload.RunMicrobenchOn(o.Joins, s)
		return outcome{sec, j}, err
	})
	if err != nil {
		return Result{}, err
	}
	for i, s := range systems {
		sec, j := outs[i].sec, outs[i].j
		tbl.Row("%-26s %14.1f %14.0f\n", s.Name, sec, j)
		a := anchors[s.Name]
		pairs = append(pairs,
			metrics.Pair{Metric: s.Name + " time (s)", Paper: a[0], Measured: sec},
			metrics.Pair{Metric: s.Name + " energy (J)", Paper: a[1], Measured: j},
		)
	}
	return Result{ID: "fig6", Title: "Single-node hash join energy", Tables: []Table{*tbl}, Pairs: pairs}, nil
}

// fig7LSels enumerates the §5.2 workloads for one ORDERS selectivity:
// LINEITEM at 1, 10, 50, 100%.
var fig7LSels = []float64{0.01, 0.10, 0.50, 1.00}

// RunFig7 executes the SF400 dual-shuffle joins on the all-Beefy (AB) and
// 2-Beefy/2-Wimpy (BW) clusters through o.Joins. hetero selects
// heterogeneous execution for the BW cluster (ORDERS 10% regime). The
// eight (LINEITEM selectivity, cluster design) runs are independent
// simulations and shard across o.Shards workers.
func RunFig7(o Options, oSel float64, hetero bool) (ab, bw map[float64]pstore.JoinResult, abJ, bwJ map[float64]float64, err error) {
	o = o.withDefaults()
	type point struct {
		lSel float64
		bwC  bool // false = all-Beefy, true = Beefy/Wimpy
	}
	type outcome struct {
		res    pstore.JoinResult
		joules float64
	}
	var grid []point
	for _, lSel := range fig7LSels {
		grid = append(grid, point{lSel, false}, point{lSel, true})
	}
	outs, err := par.Map(o.Shards, grid, func(_ int, pt point) (outcome, error) {
		spec := workload.Q3Join(400, oSel, pt.lSel, pstore.DualShuffle)
		var c *cluster.Cluster
		var e error
		tag := "AB"
		if pt.bwC {
			tag = "BW"
			c, e = cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
			if hetero {
				spec.BuildNodes = []int{0, 1}
			}
		} else {
			c, e = cluster.New(cluster.Homogeneous(4, hw.BeefyL5630()))
		}
		if e != nil {
			return outcome{}, e
		}
		res, joules, e := o.Joins.RunJoin(c, engineCfg(), spec)
		if e != nil {
			return outcome{}, fmt.Errorf("%s O%v/L%v: %w", tag, oSel, pt.lSel, e)
		}
		return outcome{res, joules}, nil
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ab, bw = map[float64]pstore.JoinResult{}, map[float64]pstore.JoinResult{}
	abJ, bwJ = map[float64]float64{}, map[float64]float64{}
	for i, pt := range grid {
		if pt.bwC {
			bw[pt.lSel], bwJ[pt.lSel] = outs[i].res, outs[i].joules
		} else {
			ab[pt.lSel], abJ[pt.lSel] = outs[i].res, outs[i].joules
		}
	}
	return ab, bw, abJ, bwJ, nil
}

func fig7Report(o Options, id, title string, oSel float64, hetero bool, paperSavings map[float64]float64) (Result, error) {
	ab, bw, abJ, bwJ, err := RunFig7(o, oSel, hetero)
	if err != nil {
		return Result{}, err
	}
	tbl := NewTable("ab_vs_bw", "LINEITEM", "AB time(s)", "AB kJ", "BW time(s)", "BW kJ", "BW saving").
		Titled(fmt.Sprintf("%s (SF 400, dual shuffle)\n", title)).
		Header("%-10s %12s %12s %12s %12s %12s\n")
	var pairs []metrics.Pair
	for _, l := range fig7LSels {
		saving := 1 - bwJ[l]/abJ[l]
		tbl.Row("%9.0f%% %12.1f %12.1f %12.1f %12.1f %11.0f%%\n",
			l*100, ab[l].Seconds, abJ[l]/1000, bw[l].Seconds, bwJ[l]/1000, saving*100)
		if want, ok := paperSavings[l]; ok {
			pairs = append(pairs, metrics.Pair{
				Metric: fmt.Sprintf("BW energy saving at L%.0f%%", l*100),
				Paper:  want, Measured: saving,
			})
		}
	}
	return Result{ID: id, Title: title, Tables: []Table{*tbl}, Pairs: pairs}, nil
}

// Fig7a regenerates Figure 7(a): ORDERS 1%, homogeneous execution. The
// BW cluster wins at unselective LINEITEM predicates (50%, 100%) and
// loses when the scan-rate of the Wimpy nodes is the bottleneck (1%).
func Fig7a(o Options) (Result, error) {
	return fig7Report(o, "fig7a", "AB vs BW clusters, ORDERS 1% (homogeneous)", 0.01, false,
		map[float64]float64{0.50: 0.43, 1.00: 0.56})
}

// Fig7b regenerates Figure 7(b): ORDERS 10%, heterogeneous execution
// (Wimpy nodes scan/filter only). BW saves 7%/13% at L 50%/100%.
func Fig7b(o Options) (Result, error) {
	return fig7Report(o, "fig7b", "AB vs BW clusters, ORDERS 10% (heterogeneous)", 0.10, true,
		map[float64]float64{0.50: 0.07, 1.00: 0.13})
}
