// Package workload defines the standard workloads of the paper's
// evaluation as reusable specifications: the TPC-H Q3
// LINEITEM⋈ORDERS hash join at the experiment scale factors, the
// Figure 6 single-node in-memory hash-join microbenchmark, and the
// JoinRequest construction used by the workload-stream service mode
// (cmd/serve) to turn streamed JSON requests into engine JoinSpecs.
package workload

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Q3Join returns the paper's workhorse join (Section 4.3): ORDERS (build)
// ⋈ LINEITEM (probe) on ORDERKEY, partition-incompatible on both sides
// (ORDERS segmented on O_CUSTKEY, LINEITEM on L_SHIPDATE), projected to
// four 20-byte columns each.
func Q3Join(sf tpch.ScaleFactor, buildSel, probeSel float64, method pstore.JoinMethod) pstore.JoinSpec {
	return pstore.JoinSpec{
		Build: storage.TableDef{
			Table: tpch.Orders, SF: sf, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "O_CUSTKEY",
		},
		Probe: storage.TableDef{
			Table: tpch.Lineitem, SF: sf, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE",
		},
		BuildSel: buildSel,
		ProbeSel: probeSel,
		Method:   method,
	}
}

// Q3JoinPrepartitioned returns the partition-compatible variant (both
// tables segmented on ORDERKEY): the "prepartitioned (no network)" plan
// of Figure 5.
func Q3JoinPrepartitioned(sf tpch.ScaleFactor, buildSel, probeSel float64) pstore.JoinSpec {
	s := Q3Join(sf, buildSel, probeSel, pstore.Prepartitioned)
	s.Build.SegmentColumn = "O_ORDERKEY"
	s.Probe.SegmentColumn = "L_ORDERKEY"
	return s
}

// MicrobenchJoin returns the Figure 6 workload: an in-memory hash join
// between a 0.1M-row (10 MB) build table and a 20M-row (2 GB) probe
// table of 100-byte tuples, run on a single node.
func MicrobenchJoin() pstore.JoinSpec {
	return pstore.JoinSpec{
		Build: storage.TableDef{
			Table: tpch.Part, Width: tpch.MicrobenchWidth,
			Placement: storage.HashSegmented, RowsOverride: 100_000,
		},
		Probe: storage.TableDef{
			Table: tpch.Part, Width: tpch.MicrobenchWidth,
			Placement: storage.HashSegmented, RowsOverride: 20_000_000,
		},
		BuildSel: 1.0, ProbeSel: 1.0,
		Method: pstore.Prepartitioned,
	}
}

// RunMicrobenchOn executes the Figure 6 workload on one node of the given
// hardware through r and returns (response seconds, joules). r is a join
// runner so a suite-wide pstore.Cache also memoizes the microbenchmarks.
func RunMicrobenchOn(r pstore.JoinRunner, spec hw.Spec) (float64, float64, error) {
	c, err := cluster.New(cluster.Homogeneous(1, spec))
	if err != nil {
		return 0, 0, err
	}
	cfg := pstore.Config{WarmCache: true, BatchRows: 100_000}
	res, joules, err := r.RunJoin(c, cfg, MicrobenchJoin())
	if err != nil {
		return 0, 0, err
	}
	return res.Seconds, joules, nil
}

// JoinRequest describes one streamed join request in workload terms: the
// paper's Q3 LINEITEM⋈ORDERS join parameterized by scale factor,
// selectivities and physical plan. Zero values select the service
// defaults (SF 10, 5% selectivities, dual-shuffle), so an empty JSON
// object is a valid request.
type JoinRequest struct {
	SF       float64 `json:"sf,omitempty"`
	BuildSel float64 `json:"build_sel,omitempty"`
	ProbeSel float64 `json:"probe_sel,omitempty"`
	// Method is "dual-shuffle", "broadcast" or "prepartitioned".
	Method string `json:"method,omitempty"`
}

// maxRequestSF is the largest scale factor a join request may ask for:
// the streaming path's reach (README). A served join's wall time grows
// linearly with SF, so a larger one would hold a worker for hours.
const maxRequestSF = 10_000

// ParseJoinMethod maps a request method name to the physical plan.
func ParseJoinMethod(s string) (pstore.JoinMethod, error) {
	switch s {
	case "", "dual-shuffle":
		return pstore.DualShuffle, nil
	case "broadcast":
		return pstore.Broadcast, nil
	case "prepartitioned":
		return pstore.Prepartitioned, nil
	default:
		return 0, fmt.Errorf("workload: unknown join method %q (want dual-shuffle, broadcast or prepartitioned)", s)
	}
}

// Spec validates the request and constructs the engine JoinSpec.
func (r JoinRequest) Spec() (pstore.JoinSpec, error) {
	sf := r.SF
	if sf == 0 {
		sf = 10
	}
	if sf < 0 || math.IsNaN(sf) || math.IsInf(sf, 0) {
		return pstore.JoinSpec{}, fmt.Errorf("workload: sf must be a positive, finite number, got %v", r.SF)
	}
	if sf > maxRequestSF {
		return pstore.JoinSpec{}, fmt.Errorf("workload: sf %v exceeds the largest servable scale factor, %d", sf, maxRequestSF)
	}
	// LINEITEM has four rows per ORDERS row, so ORDERS is the first table
	// a small scale factor leaves empty: the caller's mistake, refused
	// here rather than failed by the engine.
	if tpch.ScaleFactor(sf).Orders() < 1 {
		return pstore.JoinSpec{}, fmt.Errorf("workload: sf %v gives ORDERS no rows", sf)
	}
	bsel, psel := r.BuildSel, r.ProbeSel
	if bsel == 0 {
		bsel = 0.05
	}
	if psel == 0 {
		psel = 0.05
	}
	if !(bsel > 0 && bsel <= 1) || !(psel > 0 && psel <= 1) {
		return pstore.JoinSpec{}, fmt.Errorf("workload: selectivities must be in (0,1], got build=%v probe=%v", r.BuildSel, r.ProbeSel)
	}
	method, err := ParseJoinMethod(r.Method)
	if err != nil {
		return pstore.JoinSpec{}, err
	}
	if method == pstore.Prepartitioned {
		return Q3JoinPrepartitioned(tpch.ScaleFactor(sf), bsel, psel), nil
	}
	return Q3Join(tpch.ScaleFactor(sf), bsel, psel, method), nil
}
