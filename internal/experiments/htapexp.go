package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/workload"
)

// The htap experiments extend the paper beyond its read-only scope: the
// paper's energy figures measure analytics on otherwise idle hardware,
// but a deployed cluster also pays for the write path — ingest CPU,
// cross-fabric routing of updates to partition owners, and background
// delta merges. htap1 sweeps the update rate on the paper's Cluster-V
// nodes; htap2 fixes the rate and compares node designs, asking whether
// the paper's "wimpy nodes are energy-efficient" conclusion survives
// when transactions share the hardware.

// htap1Rates are the cluster-wide update-stream rates, in rows per
// virtual second, that the htap1 sweep runs. The first, 0 (read-only),
// is the baseline every htap1 point is normalized against.
var htap1Rates = []float64{0, 2e6, 8e6, 16e6}

// htap2Rate is the fixed cluster-wide update rate of the design
// comparison: 8M rows/s, the middle of the htap1 sweep — enough to make
// the write path visible without drowning the analytics.
const htap2Rate = 8e6

// htapRun executes one mixed run and returns its result.
func htapRun(o Options, cfg cluster.Config, rate float64) (workload.HTAPResult, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return workload.HTAPResult{}, err
	}
	return workload.RunHTAP(c, engineCfg(), workload.HTAPSpec{SF: o.SF, UpdateRowsPerSec: rate})
}

// htapColumns is the shared metric layout of both htap tables.
func htapTable(name string) *Table {
	return NewTable(name,
		"run", "makespan (s)", "queries/s", "applied Mrows/s",
		"txns", "merges", "energy (kJ)", "J/query", "J/txn").
		Header("%-16s %13s %10s %16s %7s %7s %12s %10s %8s\n")
}

func htapRow(tbl *Table, label string, r workload.HTAPResult) {
	applied := 0.0
	if r.Makespan > 0 {
		applied = float64(r.TxnRows) / r.Makespan / 1e6
	}
	tbl.Row("%-16s %13.2f %10.4f %16.2f %7d %7d %12.1f %10.1f %8.2f\n",
		label, r.Makespan, r.QueriesPerSec(), applied,
		r.Txns, r.Merges, r.Joules/1e3, r.JoulesPerQuery(), r.JoulesPerTxn())
}

func htapPoint(label string, r workload.HTAPResult) power.Point {
	return power.Point{Label: label, Seconds: r.Makespan, Joules: r.Joules}
}

// Htap1 sweeps the transactional update rate against the paper's
// Figure 3 setup (4x Cluster-V, sequential Q3 dual-shuffle joins): as
// the write stream rises, analytics throughput degrades and total
// energy climbs, splitting into an energy-per-query and an
// energy-per-transaction bill the read-only figures never see. The
// series is normalized to the read-only run (the sweep's first rate).
func Htap1(o Options) (Result, error) {
	o = o.withDefaults()
	label := func(rate float64) string { return fmt.Sprintf("%gM", rate/1e6) }

	results, err := par.Map(o.Shards, htap1Rates, func(_ int, rate float64) (workload.HTAPResult, error) {
		r, err := htapRun(o, cluster.Homogeneous(4, hw.ClusterV()), rate)
		if err != nil {
			return workload.HTAPResult{}, fmt.Errorf("htap1 rate=%s: %w", label(rate), err)
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	tbl := htapTable("rates").
		Titled(fmt.Sprintf("HTAP 1: update stream vs analytics (4x Cluster-V, SF %g, 3x Q3 dual-shuffle)\n", float64(o.SF))).
		Footed("run labels are the cluster-wide update rate in Mrows/s\n")
	var pts []power.Point
	for i, rate := range htap1Rates {
		htapRow(tbl, label(rate), results[i])
		pts = append(pts, htapPoint(label(rate), results[i]))
	}
	s, err := metrics.NewSeries("HTAP 1 — analytics under a rising update stream", pts, label(htap1Rates[0]))
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "htap1", Title: "HTAP: analytics vs transactional update rate",
		Series: []metrics.Series{s}, Tables: []Table{*tbl}}, nil
}

// Htap2 fixes the update rate (htap2Rate) and swaps the node design
// under the same mixed workload: the paper's beefy/wimpy energy
// trade-off, re-measured with the write path running. Wimpy nodes that
// win on joules per read-only query must now also absorb ingest and
// merge CPU, so the per-transaction energy column can rank designs
// differently than the per-query one. Normalized to 4x Cluster-V.
func Htap2(o Options) (Result, error) {
	o = o.withDefaults()
	type design struct {
		name string
		cfg  cluster.Config
	}
	designs := []design{
		{"4x Cluster-V", cluster.Homogeneous(4, hw.ClusterV())},
		{"4x Beefy L5630", cluster.Homogeneous(4, hw.BeefyL5630())},
		{"2B + 2W mixed", cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB())},
		{"4x Laptop B", cluster.Homogeneous(4, hw.LaptopB())},
	}

	results, err := par.Map(o.Shards, designs, func(_ int, d design) (workload.HTAPResult, error) {
		r, err := htapRun(o, d.cfg, htap2Rate)
		if err != nil {
			return workload.HTAPResult{}, fmt.Errorf("htap2 %s: %w", d.name, err)
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	tbl := htapTable("designs").
		Titled(fmt.Sprintf("HTAP 2: node designs under a fixed %gM rows/s update stream (SF %g)\n",
			htap2Rate/1e6, float64(o.SF)))
	var pts []power.Point
	for i, d := range designs {
		htapRow(tbl, d.name, results[i])
		pts = append(pts, htapPoint(d.name, results[i]))
	}
	s, err := metrics.NewSeries("HTAP 2 — node designs under mixed load", pts, designs[0].name)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "htap2", Title: "HTAP: energy per transaction and per query across designs",
		Series: []metrics.Series{s}, Tables: []Table{*tbl}}, nil
}
