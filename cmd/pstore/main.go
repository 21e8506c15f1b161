// Command pstore runs a single P-store parallel hash join on a simulated
// cluster and reports response time, per-phase split, and energy.
//
// Usage:
//
//	pstore -sf 100 -nodes 8 -bsel 0.05 -psel 0.05 -method shuffle
//	pstore -sf 400 -beefy 2 -wimpy 2 -bsel 0.10 -psel 0.50 -hetero
//	pstore -sf 0.01 -nodes 4 -materialize      # real tuples + verification
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	var (
		sf       = flag.Float64("sf", 100, "TPC-H scale factor")
		nodes    = flag.Int("nodes", 8, "homogeneous cluster size (cluster-V nodes)")
		beefy    = flag.Int("beefy", 0, "Beefy node count (overrides -nodes when set, L5630 nodes)")
		wimpy    = flag.Int("wimpy", 0, "Wimpy node count (Laptop B nodes)")
		bsel     = flag.Float64("bsel", 0.05, "ORDERS selectivity")
		psel     = flag.Float64("psel", 0.05, "LINEITEM selectivity")
		method   = flag.String("method", "shuffle", "join method: shuffle | broadcast | prepartitioned")
		hetero   = flag.Bool("hetero", false, "heterogeneous execution (Beefy nodes build, Wimpy scan/filter)")
		conc     = flag.Int("concurrency", 1, "concurrent identical queries")
		mat      = flag.Bool("materialize", false, "materialize tuples and verify against a reference join (small SF only)")
		cold     = flag.Bool("cold", false, "cold cache (disk-rate scans)")
		timeline = flag.Bool("timeline", false, "print per-node CPU utilization heat strips")
		batch    = flag.Int("batch-rows", 0, "tuples per exchange batch (0 = default: 200000, or 4096 with -materialize; clamped at the engine maximum)")
	)
	flag.Parse()

	var cfg cluster.Config
	if *beefy > 0 || *wimpy > 0 {
		cfg = cluster.Mixed(*beefy, hw.BeefyL5630(), *wimpy, hw.LaptopB())
	} else {
		cfg = cluster.Homogeneous(*nodes, hw.ClusterV())
	}
	cfg.TraceMeters = *timeline
	c, err := cluster.New(cfg)
	if err != nil {
		fatal(err)
	}

	var m pstore.JoinMethod
	switch *method {
	case "shuffle":
		m = pstore.DualShuffle
	case "broadcast":
		m = pstore.Broadcast
	case "prepartitioned":
		m = pstore.Prepartitioned
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	var spec pstore.JoinSpec
	if m == pstore.Prepartitioned {
		spec = workload.Q3JoinPrepartitioned(tpch.ScaleFactor(*sf), *bsel, *psel)
	} else {
		spec = workload.Q3Join(tpch.ScaleFactor(*sf), *bsel, *psel, m)
	}
	if *hetero {
		spec.BuildNodes = c.Beefy()
	}
	if *mat {
		spec.Build.Materialize = true
		spec.Probe.Materialize = true
	}

	ecfg := pstore.Config{WarmCache: !*cold, BatchRows: 200_000}
	if *mat {
		ecfg.BatchRows = 4096
	}
	if *batch > 0 {
		ecfg.BatchRows = *batch
	} else if *batch < 0 {
		fatal(fmt.Errorf("-batch-rows must be >= 0 (0 = default), got %d", *batch))
	}

	if *conc > 1 {
		makespan, per, joules, err := pstore.RunConcurrent(c, ecfg, spec, *conc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("method=%s  %d concurrent queries on %d nodes\n", m, *conc, len(c.Nodes))
		fmt.Printf("makespan: %.2f s   energy: %.1f kJ\n", makespan, joules/1000)
		for i, s := range per {
			fmt.Printf("  q%d: %.2f s\n", i, s)
		}
		return
	}

	res, joules, err := pstore.RunJoin(c, ecfg, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("method=%s  nodes=%d  SF=%g  O sel=%.0f%%  L sel=%.0f%%\n",
		m, len(c.Nodes), *sf, *bsel*100, *psel*100)
	fmt.Printf("response time: %.2f s (build %.2f + probe %.2f)\n",
		res.Seconds, res.BuildSeconds, res.ProbeSeconds)
	fmt.Printf("energy:        %.1f kJ  (EDP %.0f kJ·s)\n", joules/1000, joules*res.Seconds/1000)
	fmt.Printf("output rows:   %d   max hash table: %.0f MB\n",
		res.OutputRows, res.MaxHashTableBytes/1e6)
	if *timeline {
		fmt.Print(c.Timeline(64))
	}
	if *mat {
		wantRows, wantSum := pstore.ReferenceJoin(spec.Build, spec.Probe, *bsel, *psel)
		status := "OK"
		if wantRows != res.OutputRows || wantSum != res.Checksum {
			status = "MISMATCH"
		}
		fmt.Printf("verification:  reference join rows=%d checksum=%d -> %s\n", wantRows, wantSum, status)
		if status != "OK" {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
