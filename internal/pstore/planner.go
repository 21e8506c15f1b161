package pstore

// Energy-aware physical planning. Section 6 opens with "using initial
// hardware calibration data and query optimizer information"; this file
// is that optimizer: given table statistics, predicate selectivities and
// the cluster's calibration (memory, network, CPU rates), it picks the
// physical join plan P-store should run —
//
//   - Prepartitioned when both inputs are already segmented on the join
//     key (no exchange at all);
//   - Broadcast when the qualified build side is small enough that
//     shipping (N-1) copies costs less wire time than dual-shuffling
//     both inputs — and it fits in every node's memory;
//   - DualShuffle otherwise;
//
// and decides between homogeneous and heterogeneous execution with the
// Table 3 H predicate (can the Wimpy nodes hold their hash-table share,
// leaving headroom for the working set they must also cache).

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// hashOwnerRowHint estimates the qualified build rows each hash-table
// owner will hold — the optimizer-information half of the presize path
// (Section 6's "query optimizer information"): every owner holds a full
// copy under Broadcast, a 1/owners share under the hash-routed plans.
// The estimate pre-sizes each owner's hash table before the first batch
// arrives.
func hashOwnerRowHint(spec JoinSpec, owners int) int {
	hint := int(float64(spec.Build.TotalRows()) * spec.BuildSel)
	if spec.Method != Broadcast && owners > 0 {
		hint = hint/owners + 1
	}
	return hint
}

// PlanRequest describes a join to be planned.
type PlanRequest struct {
	Build, Probe       storage.TableDef
	BuildSel, ProbeSel float64
	// JoinKeyColumns name the equi-join key on each side; the plan is
	// partition-compatible when both tables are segmented on them.
	BuildKeyColumn, ProbeKeyColumn string
}

// workingSetHeadroom is the fraction of node memory the planner
// reserves for cached working set and runtime state before placing hash
// tables: the Wimpy nodes of §5.2 could cache their 3 GB ORDERS
// partition but not also hold a large table.
const workingSetHeadroom = 0.5

// Plan is the planner's decision, ready to execute.
type Plan struct {
	Spec JoinSpec
}

// PlanJoin chooses the physical plan for the request on the given
// cluster.
func PlanJoin(c *cluster.Cluster, req PlanRequest) (Plan, error) {
	if req.BuildSel <= 0 || req.BuildSel > 1 || req.ProbeSel <= 0 || req.ProbeSel > 1 {
		return Plan{}, fmt.Errorf("pstore: planner needs selectivities in (0,1]")
	}
	n := len(c.Nodes)
	nf := float64(n)

	spec := JoinSpec{
		Build: req.Build, Probe: req.Probe,
		BuildSel: req.BuildSel, ProbeSel: req.ProbeSel,
	}

	qualBuild := req.Build.TotalBytes() * req.BuildSel
	qualProbe := req.Probe.TotalBytes() * req.ProbeSel

	// 1. Partition compatibility: both sides segmented on the join key.
	compatible := req.BuildKeyColumn != "" &&
		req.Build.SegmentColumn == req.BuildKeyColumn &&
		req.Probe.SegmentColumn == req.ProbeKeyColumn
	if compatible {
		spec.Method = Prepartitioned
		return Plan{Spec: spec}, nil
	}

	// 2. Broadcast vs dual shuffle. Broadcast ships (N-1) copies of the
	// qualified build table and makes EVERY node build the full hash
	// table (the §4.1 algorithmic bottleneck: that phase does not
	// parallelize), so it must win on the wire AND satisfy the classic
	// optimizer rule N*|build| < |probe| to amortize the duplicated
	// build work.
	bcastWire := qualBuild * (nf - 1)
	shuffleWire := (qualBuild + qualProbe) * (nf - 1) / nf
	bcastWins := bcastWire < shuffleWire && nf*qualBuild < qualProbe

	// budget is the hash-table bytes every node of a class can hold:
	// the smallest one's memory less the working-set headroom, +Inf when
	// the cluster has no node of the class.
	budget := func(wimpy bool) float64 {
		mb := math.Inf(1)
		for _, nd := range c.Nodes {
			if nd.IsWimpy() == wimpy {
				mb = min(mb, nd.Spec.MemoryMB)
			}
		}
		return mb * 1e6 * (1 - workingSetHeadroom)
	}

	// Broadcast also requires the FULL qualified build table in every
	// node's memory budget.
	if bcastWins && qualBuild <= min(budget(false), budget(true)) {
		spec.Method = Broadcast
		return Plan{Spec: spec}, nil
	}
	// Otherwise dual shuffle: broadcast loses on the wire or does not fit.
	spec.Method = DualShuffle

	// 3. Homogeneous vs heterogeneous: the H predicate with working-set
	// headroom. If the Wimpy nodes cannot hold their hash-table share,
	// only the Beefy nodes build (§5.2.2). A cluster with no Wimpy node
	// has an infinite Wimpy budget, so every node builds.
	if perNodeShare := qualBuild / nf; perNodeShare > budget(true) {
		beefy := c.Beefy()
		if len(beefy) == 0 {
			return Plan{}, fmt.Errorf("pstore: hash table share (%.0f MB) exceeds every node's budget", perNodeShare/1e6)
		}
		perBeefy := qualBuild / float64(len(beefy))
		if perBeefy > budget(false) {
			return Plan{}, fmt.Errorf("pstore: even the %d Beefy nodes cannot hold the hash table (%.0f MB each)",
				len(beefy), perBeefy/1e6)
		}
		// H fails: heterogeneous execution on the Beefy nodes.
		spec.BuildNodes = beefy
	}
	return Plan{Spec: spec}, nil
}
