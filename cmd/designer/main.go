// Command designer recommends an energy-efficient cluster design for a
// parallel hash-join workload, applying the paper's Figure 12 principles.
//
// Usage:
//
//	designer -build-gb 700 -probe-gb 2800 -bsel 0.10 -psel 0.02 \
//	         -nodes 8 -target 0.6
//
//	designer -sweep '0.01,0.02,0.05,0.10' -nodes 8 -target 0.6
//
// The tool classifies the workload (scalable vs bottlenecked), explores
// every homogeneous size and Beefy/Wimpy mix, and prints the
// recommendation with the full candidate table. With -sweep it evaluates
// the full bsel x psel selectivity grid concurrently (one designer run
// per cell, fanned out on the runner's worker pool) and prints the
// recommended design per cell — the "entire workload" view of §6.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/report"
)

func main() {
	var (
		buildGB = flag.Float64("build-gb", 700, "build (inner) table size in GB")
		probeGB = flag.Float64("probe-gb", 2800, "probe (outer) table size in GB")
		bsel    = flag.Float64("bsel", 0.10, "build predicate selectivity (0..1]")
		psel    = flag.Float64("psel", 0.10, "probe predicate selectivity (0..1]")
		nodes   = flag.Int("nodes", 8, "cluster size to design for")
		target  = flag.Float64("target", 0.6, "minimum acceptable normalized performance (0..1]")
		warm    = flag.Bool("warm", false, "working set cached (scan at CPU rate)")
		sweep   = flag.String("sweep", "", "comma-separated selectivities: design the full bsel x psel grid in parallel")
		jobs    = flag.Int("j", 0, "parallel workers for -sweep (default GOMAXPROCS)")
		jsonOut = flag.Bool("json", false, "emit the recommendation (or grid) as structured JSON")
	)
	flag.Parse()

	params := func(bs, ps float64) model.Params {
		base := model.FromSpecs(*nodes, hw.ClusterV(), 0, hw.WimpyModelNode())
		base.Bld = *buildGB * 1000
		base.Prb = *probeGB * 1000
		base.Sbld, base.Sprb = bs, ps
		base.WarmCache = *warm
		return base
	}

	if *sweep != "" {
		if err := sweepGrid(*sweep, params, *nodes, *target, *jobs, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	d := core.Designer{Base: params(*bsel, *psel), MaxNodes: *nodes}
	adv, err := d.Recommend(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		if err := writeAdviceJSON(os.Stdout, *bsel, *psel, adv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload:   ORDERS-like %g GB @ %.0f%% ⋈ LINEITEM-like %g GB @ %.0f%%\n",
		*buildGB, *bsel*100, *probeGB, *psel*100)
	fmt.Printf("class:      %s\n", adv.Class)
	fmt.Printf("recommend:  %s  (%.1f s, %.0f kJ; perf %.2f, energy %.2f vs %dB)\n",
		adv.Best.Label(), adv.Best.Seconds, adv.Best.Joules/1000,
		adv.Best.NormPerf, adv.Best.NormEnergy, *nodes)
	if adv.BestHomogeneous.NB > 0 && adv.BestHomogeneous.Label() != adv.Best.Label() {
		fmt.Printf("best homog: %s  (perf %.2f, energy %.2f)\n",
			adv.BestHomogeneous.Label(), adv.BestHomogeneous.NormPerf, adv.BestHomogeneous.NormEnergy)
	}
	fmt.Printf("principle:  %s\n\n", adv.Principle)

	var pts []power.Point
	for _, c := range adv.Candidates {
		pts = append(pts, c.Point())
	}
	metrics.SortByPerf(pts)
	s := metrics.Series{
		Title:  "design space (normalized to the all-Beefy full cluster)",
		XLabel: "Normalized Performance", YLabel: "Normalized Energy",
		Points: pts,
	}
	fmt.Print(report.SeriesTable(s))
	fmt.Println()
	fmt.Print(report.SeriesPlot(s, 56, 14))
}

// designCell is the structured JSON form of one recommendation.
type designCell struct {
	Bsel       float64 `json:"bsel"`
	Psel       float64 `json:"psel"`
	Class      string  `json:"class"`
	Design     string  `json:"design"`
	Seconds    float64 `json:"seconds"`
	Joules     float64 `json:"joules"`
	NormPerf   float64 `json:"norm_perf"`
	NormEnergy float64 `json:"norm_energy"`
	Principle  string  `json:"principle,omitempty"`
}

func toCell(bs, ps float64, adv core.Advice) designCell {
	return designCell{
		Bsel: bs, Psel: ps,
		Class: adv.Class.String(), Design: adv.Best.Label(),
		Seconds: adv.Best.Seconds, Joules: adv.Best.Joules,
		NormPerf: adv.Best.NormPerf, NormEnergy: adv.Best.NormEnergy,
		Principle: adv.Principle,
	}
}

func writeAdviceJSON(w *os.File, bs, ps float64, adv core.Advice) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(toCell(bs, ps, adv))
}

// sweepGrid designs every (bsel, psel) cell of the grid concurrently and
// prints the per-cell recommendation.
func sweepGrid(spec string, params func(bs, ps float64) model.Params, nodes int, target float64, jobs int, jsonOut bool) error {
	var sels []float64
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("designer: bad -sweep value %q: %w", f, err)
		}
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("designer: -sweep selectivity %v out of (0,1]", v)
		}
		sels = append(sels, v)
	}

	type cell struct{ bs, ps float64 }
	var cells []cell
	for _, bs := range sels {
		for _, ps := range sels {
			cells = append(cells, cell{bs, ps})
		}
	}
	advs, err := par.Map(jobs, cells, func(_ int, c cell) (core.Advice, error) {
		d := core.Designer{Base: params(c.bs, c.ps), MaxNodes: nodes}
		return d.Recommend(target)
	})
	if err != nil {
		return err
	}

	if jsonOut {
		out := make([]designCell, len(cells))
		for i, c := range cells {
			out[i] = toCell(c.bs, c.ps, advs[i])
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("design grid: %d cells, target perf %.2f, %d nodes max\n\n", len(cells), target, nodes)
	fmt.Printf("%8s %8s  %-14s %-12s %10s %10s\n", "bsel", "psel", "recommend", "class", "perf", "energy")
	for i, c := range cells {
		adv := advs[i]
		fmt.Printf("%7.0f%% %7.0f%%  %-14s %-12s %10.2f %10.2f\n",
			c.bs*100, c.ps*100, adv.Best.Label(), adv.Class.String(),
			adv.Best.NormPerf, adv.Best.NormEnergy)
	}
	return nil
}
