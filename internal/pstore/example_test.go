package pstore_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TPC-H Q3's LINEITEM ⋈ ORDERS dual-shuffle join (SF 100, 5% predicates)
// on 8 and 4 cluster-V nodes: the network-bound shuffle speeds up
// sub-linearly, so the half cluster uses less energy for the same query.
func ExampleRunJoin() {
	spec := workload.Q3Join(100, 0.05, 0.05, pstore.DualShuffle)
	for _, n := range []int{8, 4} {
		c, err := cluster.New(cluster.Homogeneous(n, hw.ClusterV()))
		if err != nil {
			log.Fatal(err)
		}
		res, joules, err := pstore.RunJoin(c, pstore.Config{WarmCache: true}, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d nodes: %.1f s (build %.1f s, probe %.1f s), %.1f kJ, %d rows\n",
			n, res.Seconds, res.BuildSeconds, res.ProbeSeconds, joules/1000, res.OutputRows)
	}
	// Output:
	// 8 nodes: 0.8 s (build 0.2 s, probe 0.7 s), 2.4 kJ, 1500000 rows
	// 4 nodes: 1.4 s (build 0.3 s, probe 1.1 s), 2.1 kJ, 1500000 rows
}

// The energy-aware planner picks Q3's plan on 2 Beefy + 2 Wimpy nodes as
// the ORDERS selectivity grows.
func ExamplePlanJoin() {
	req := pstore.PlanRequest{
		Build: storage.TableDef{Table: tpch.Orders, SF: 100, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "O_CUSTKEY"},
		Probe: storage.TableDef{Table: tpch.Lineitem, SF: 100, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE"},
		BuildKeyColumn: "O_ORDERKEY", ProbeKeyColumn: "L_ORDERKEY",
		ProbeSel: 0.50,
	}
	for _, sel := range []float64{0.001, 0.05, 0.50} {
		c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
		if err != nil {
			log.Fatal(err)
		}
		req.BuildSel = sel
		plan, err := pstore.PlanJoin(c, req)
		if err != nil {
			log.Fatal(err)
		}
		res, joules, err := pstore.RunJoin(c, pstore.Config{WarmCache: true, BatchRows: 200_000}, plan.Spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ORDERS %4.1f%%: %-12s %5.1f s %4.1f kJ\n", sel*100, plan.Spec.Method, res.Seconds, joules/1000)
	}
	// Output:
	// ORDERS  0.1%: broadcast      4.7 s  2.3 kJ
	// ORDERS  5.0%: broadcast      5.2 s  2.5 kJ
	// ORDERS 50.0%: dual-shuffle  14.8 s  6.6 kJ
}
