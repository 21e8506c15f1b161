package pstore

import (
	"fmt"
	"math"
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

// TestPlannerIgnoresBeefyNodeOrder: the Beefy budget is the smallest
// Beefy node's, as the broadcast and Wimpy budgets are minima, so
// swapping a Cluster-V node (47 GB) and an L5630 (31 GB) cannot change
// the plan. At SF 1100 with every row qualifying, each of the two Beefy
// owners would hold 16.5 GB, past the L5630's 15.5 GB budget.
func TestPlannerIgnoresBeefyNodeOrder(t *testing.T) {
	verdict := func(first, second hw.Spec, req PlanRequest) string {
		c, err := cluster.New(cluster.Config{Specs: []hw.Spec{first, second, hw.LaptopB(), hw.LaptopB()}})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanJoin(c, req)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%+v", plan.Spec)
	}
	for _, sf := range []tpch.ScaleFactor{100, 400, 1100, 4000} {
		for _, bsel := range []float64{0.1, 0.2, 0.5, 1} {
			req := planReq(sf, bsel, 1)
			a := verdict(hw.ClusterV(), hw.BeefyL5630(), req)
			b := verdict(hw.BeefyL5630(), hw.ClusterV(), req)
			if a != b {
				t.Errorf("SF %v build sel %v: Cluster-V first gives %s, L5630 first gives %s", sf, bsel, a, b)
			}
		}
	}
	want := "error: pstore: even the 2 Beefy nodes cannot hold the hash table (16500 MB each)"
	if got := verdict(hw.ClusterV(), hw.BeefyL5630(), planReq(1100, 1, 1)); got != want {
		t.Errorf("SF 1100, every row qualifying: %s, want %s", got, want)
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

// TestPlannedHashTablesFitTheirBudget: P-store has no two-pass join, and
// the engine does not check a join's memory, so the planner's budget is
// where that constraint holds. On 2 Beefy (31 GB) + 2 Wimpy (7 GB) nodes
// with every ORDERS row qualifying, SF 400 puts 3 GB on each of four
// owners (the Wimpy budget is 3.5 GB) and SF 1000 puts 15 GB on each
// Beefy owner (budget 15.5 GB); the hash tables the engine then builds
// must stay within the budget of every node that owns one. SF 1100
// would need 16.5 GB per Beefy owner, which the planner refuses.
func TestPlannedHashTablesFitTheirBudget(t *testing.T) {
	mixed := func() *cluster.Cluster {
		c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		sf     tpch.ScaleFactor
		owners int
	}{{400, 4}, {1000, 2}} {
		c := mixed()
		plan, err := PlanJoin(c, planReq(tc.sf, 1, 0.01))
		if err != nil {
			t.Fatalf("SF %v: %v", tc.sf, err)
		}
		owners := plan.Spec.BuildNodes
		if len(owners) == 0 {
			for i := range c.Nodes {
				owners = append(owners, i)
			}
		}
		if len(owners) != tc.owners {
			t.Fatalf("SF %v: plan %+v has %d hash-table owners, want %d", tc.sf, plan.Spec, len(owners), tc.owners)
		}
		budget := math.Inf(1)
		for _, b := range owners {
			budget = min(budget, c.Nodes[b].Spec.MemoryMB*1e6*(1-workingSetHeadroom))
		}
		res, _, err := RunJoin(c, Config{BatchRows: 500_000, WarmCache: true}, plan.Spec)
		if err != nil {
			t.Fatalf("SF %v: %v", tc.sf, err)
		}
		if res.MaxHashTableBytes > budget || res.MaxHashTableBytes < budget/2 {
			t.Errorf("SF %v: largest hash table %.0f MB, want at most the owners' budget of %.0f MB and over half of it",
				tc.sf, res.MaxHashTableBytes/1e6, budget/1e6)
		}
	}
	if _, err := PlanJoin(mixed(), planReq(1100, 1, 0.01)); err == nil {
		t.Error("SF 1100, every row qualifying: a plan whose Beefy owners cannot hold the hash table was accepted")
	}
}
