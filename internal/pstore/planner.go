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
	"strings"

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
	// WorkingSetHeadroom is the fraction of node memory the planner
	// reserves for cached working set and runtime state before placing
	// hash tables (default 0.5 — the Wimpy nodes of §5.2 could cache
	// their 3 GB ORDERS partition but not also hold a large table).
	WorkingSetHeadroom float64
}

func (r PlanRequest) headroom() float64 {
	if r.WorkingSetHeadroom <= 0 || r.WorkingSetHeadroom >= 1 {
		return 0.5
	}
	return r.WorkingSetHeadroom
}

// Plan is the planner's decision, ready to execute.
type Plan struct {
	Spec JoinSpec
	// Reasoning records each decision for explainability.
	Reasoning []string
	// WireBytes estimates the bytes the chosen plan moves over the
	// network (the quantity the decision minimizes).
	WireBytes float64
}

// Explain renders the reasoning.
func (p Plan) Explain() string { return strings.Join(p.Reasoning, "\n") }

// PlanJoin chooses the physical plan for the request on the given
// cluster.
func PlanJoin(c *cluster.Cluster, req PlanRequest) (Plan, error) {
	if req.BuildSel <= 0 || req.BuildSel > 1 || req.ProbeSel <= 0 || req.ProbeSel > 1 {
		return Plan{}, fmt.Errorf("pstore: planner needs selectivities in (0,1]")
	}
	n := len(c.Nodes)
	nf := float64(n)
	var reasons []string

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
		reasons = append(reasons,
			fmt.Sprintf("both inputs segmented on the join key (%s/%s): prepartitioned, no exchange",
				req.BuildKeyColumn, req.ProbeKeyColumn))
		return Plan{Spec: spec, Reasoning: reasons, WireBytes: 0}, nil
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

	// Broadcast also requires the FULL qualified build table in every
	// node's memory budget.
	minMemMB := c.Nodes[0].Spec.MemoryMB
	for _, nd := range c.Nodes {
		if nd.Spec.MemoryMB < minMemMB {
			minMemMB = nd.Spec.MemoryMB
		}
	}
	budget := minMemMB * 1e6 * req.headroom()
	if bcastWins && qualBuild <= budget {
		spec.Method = Broadcast
		reasons = append(reasons,
			fmt.Sprintf("broadcast wire %.0f MB < shuffle wire %.0f MB and %.0f MB fits every node: broadcast",
				bcastWire/1e6, shuffleWire/1e6, qualBuild/1e6))
		return Plan{Spec: spec, Reasoning: reasons, WireBytes: bcastWire}, nil
	}
	if bcastWins {
		reasons = append(reasons,
			fmt.Sprintf("broadcast would be cheaper on the wire (%.0f vs %.0f MB) but the %.0f MB table does not fit the %.0f MB budget",
				bcastWire/1e6, shuffleWire/1e6, qualBuild/1e6, budget/1e6))
	}

	spec.Method = DualShuffle
	reasons = append(reasons,
		fmt.Sprintf("dual shuffle: %.0f MB over the wire", shuffleWire/1e6))

	// 3. Homogeneous vs heterogeneous: the H predicate with working-set
	// headroom. If the Wimpy nodes cannot hold their hash-table share,
	// only the Beefy nodes build (§5.2.2).
	wimpy := c.Wimpy()
	if len(wimpy) > 0 {
		perNodeShare := qualBuild / nf
		minWimpyMB := c.Nodes[wimpy[0]].Spec.MemoryMB
		for _, id := range wimpy {
			if c.Nodes[id].Spec.MemoryMB < minWimpyMB {
				minWimpyMB = c.Nodes[id].Spec.MemoryMB
			}
		}
		wimpyBudget := minWimpyMB * 1e6 * req.headroom()
		if perNodeShare > wimpyBudget {
			beefy := c.Beefy()
			if len(beefy) == 0 {
				return Plan{}, fmt.Errorf("pstore: hash table share (%.0f MB) exceeds every node's budget", perNodeShare/1e6)
			}
			perBeefy := qualBuild / float64(len(beefy))
			beefyBudget := c.Nodes[beefy[0]].Spec.MemoryMB * 1e6 * req.headroom()
			if perBeefy > beefyBudget {
				return Plan{}, fmt.Errorf("pstore: even the %d Beefy nodes cannot hold the hash table (%.0f MB each)",
					len(beefy), perBeefy/1e6)
			}
			spec.BuildNodes = beefy
			reasons = append(reasons,
				fmt.Sprintf("H fails: %.0f MB/node share exceeds the Wimpy budget (%.0f MB): heterogeneous execution on %d Beefy nodes",
					perNodeShare/1e6, wimpyBudget/1e6, len(beefy)))
		} else {
			reasons = append(reasons,
				fmt.Sprintf("H holds: %.0f MB/node fits the Wimpy budget (%.0f MB): homogeneous execution",
					perNodeShare/1e6, wimpyBudget/1e6))
		}
	}
	return Plan{Spec: spec, Reasoning: reasons, WireBytes: shuffleWire}, nil
}
