package pstore

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/tpch"
)

func planReq(sf tpch.ScaleFactor, bsel, psel float64) PlanRequest {
	b, p := smallDefs(false)
	b.SF, p.SF = sf, sf
	return PlanRequest{
		Build: b, Probe: p, BuildSel: bsel, ProbeSel: psel,
		BuildKeyColumn: "O_ORDERKEY", ProbeKeyColumn: "L_ORDERKEY",
	}
}

func TestPlannerPicksPrepartitioned(t *testing.T) {
	c := newCluster(t, 4)
	req := planReq(10, 0.05, 0.05)
	req.Build.SegmentColumn = "O_ORDERKEY"
	req.Probe.SegmentColumn = "L_ORDERKEY"
	plan, err := PlanJoin(c, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec.Method != Prepartitioned {
		t.Fatalf("plan = %s, want prepartitioned", plan.Spec.Method)
	}
	if plan.WireBytes != 0 {
		t.Fatalf("prepartitioned wire bytes = %v", plan.WireBytes)
	}
}

func TestPlannerPicksBroadcastForTinyBuild(t *testing.T) {
	// 0.1% ORDERS: broadcasting (N-1)*0.1% of ORDERS beats shuffling
	// (N-1)/N of ORDERS+LINEITEM.
	c := newCluster(t, 4)
	plan, err := PlanJoin(c, planReq(10, 0.001, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec.Method != Broadcast {
		t.Fatalf("plan = %s, want broadcast", plan.Spec.Method)
	}
}

func TestPlannerPicksShuffleForLargeBuild(t *testing.T) {
	c := newCluster(t, 4)
	plan, err := PlanJoin(c, planReq(10, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec.Method != DualShuffle {
		t.Fatalf("plan = %s, want dual shuffle", plan.Spec.Method)
	}
	if len(plan.Spec.BuildNodes) != 0 {
		t.Fatalf("homogeneous cluster got build-node subset: %v", plan.Spec.BuildNodes)
	}
}

func TestPlannerBroadcastRejectedWhenTableTooBig(t *testing.T) {
	// Force the wire math to prefer broadcast (tiny probe) but make the
	// qualified build table exceed the memory budget.
	c, err := cluster.New(cluster.Homogeneous(4, hw.LaptopB())) // 7 GB nodes
	if err != nil {
		t.Fatal(err)
	}
	// SF1000: qualified ORDERS = 30 GB * 20% = 6 GB > the 3.5 GB budget
	// of a 7 GB Laptop B node, while the wire math and the N*|build| <
	// |probe| rule both favour broadcast.
	req := planReq(1000, 0.2, 0.25)
	plan, err := PlanJoin(c, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec.Method != DualShuffle {
		t.Fatalf("oversized broadcast accepted: plan = %s", plan.Spec.Method)
	}
	// Memory alone decided it: nodes that hold the table broadcast it.
	big, err := cluster.New(cluster.Homogeneous(4, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = PlanJoin(big, req); err != nil || plan.Spec.Method != Broadcast {
		t.Fatalf("on 4 Beefy nodes: plan = %s, %v; want broadcast", plan.Spec.Method, err)
	}
}

func TestPlannerHeterogeneousWhenHFails(t *testing.T) {
	// 2 Beefy (31 GB) + 2 Wimpy (7 GB) at SF400 O10%: per-node share is
	// 1.2 GB/4 = 300 MB < 3.5 GB... so H holds there; use SF1000 O20%:
	// qualified = 6 GB, share 1.5 GB < 3.5 budget. Push to O50%: 15 GB,
	// share 3.75 GB > 3.5 GB Wimpy budget -> heterogeneous.
	c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	req := planReq(1000, 0.5, 0.5)
	plan, err := PlanJoin(c, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Spec.BuildNodes) != 2 {
		t.Fatalf("expected heterogeneous plan, got %v", plan.Spec.BuildNodes)
	}
	for _, b := range plan.Spec.BuildNodes {
		if c.Nodes[b].IsWimpy() {
			t.Fatal("wimpy node chosen as hash-table owner")
		}
	}
}

func TestPlannerErrorsWhenNothingFits(t *testing.T) {
	c, err := cluster.New(cluster.Homogeneous(2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	req := planReq(1000, 1.0, 0.5) // 30 GB qualified on 7 GB nodes
	if _, err := PlanJoin(c, req); err == nil {
		t.Fatal("impossible plan accepted")
	}
}

func TestPlannerRejectsBadSelectivity(t *testing.T) {
	c := newCluster(t, 2)
	req := planReq(10, 0, 0.5)
	if _, err := PlanJoin(c, req); err == nil {
		t.Fatal("zero selectivity accepted")
	}
}

func TestPlannedSpecExecutes(t *testing.T) {
	// End-to-end: the planner's output runs on the engine and matches the
	// reference join (materialized, small SF).
	c := newCluster(t, 3)
	b, p := smallDefs(true)
	req := PlanRequest{Build: b, Probe: p, BuildSel: 0.01, ProbeSel: 0.10,
		BuildKeyColumn: "O_ORDERKEY", ProbeKeyColumn: "L_ORDERKEY"}
	plan, err := PlanJoin(c, req)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantSum := ReferenceJoin(b, p, 0.01, 0.10)
	res, _, err := RunJoin(c, cfgSmall(), plan.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows != wantRows || res.Checksum != wantSum {
		t.Fatalf("planned %s: (%d,%d) != (%d,%d)", plan.Spec.Method,
			res.OutputRows, res.Checksum, wantRows, wantSum)
	}
}

func TestPlannerWireEstimateOrdering(t *testing.T) {
	// Broadcast wire cost grows with N; shuffle's per-table cost doesn't:
	// a build side that broadcasts on 2 nodes may shuffle on 16.
	req := planReq(10, 0.05, 0.10)
	c2 := newCluster(t, 2)
	p2, err := PlanJoin(c2, req)
	if err != nil {
		t.Fatal(err)
	}
	c16 := newCluster(t, 16)
	p16, err := PlanJoin(c16, req)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Spec.Method == Broadcast && p16.Spec.Method == Broadcast {
		t.Fatalf("broadcast chosen at both 2 and 16 nodes; expected a flip (2N: %s, 16N: %s)",
			p2.Spec.Method, p16.Spec.Method)
	}
}
