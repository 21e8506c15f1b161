// Package model implements the paper's analytical performance and energy
// model of P-store hash joins (Section 5.3, Table 3).
//
// The homogeneous-execution model is transcribed directly from the
// published equations. The heterogeneous-execution model was omitted from
// the paper ("in the interest of space, we omit this model"); the
// reconstruction here follows the paper's prose exactly:
//
//   - only the N_B Beefy nodes build/probe hash tables; Wimpy nodes scan,
//     filter, and ship qualifying tuples;
//   - "the Beefy nodes ... can only receive data at the network's
//     capacity even though there may be many Wimpy nodes trying to send
//     data to them at a higher rate" — an aggregate ingestion cap of
//     N_B*L on tuples crossing the network;
//   - senders are limited by their scan path (I*S cold, C*S warm) and by
//     their egress link relative to the fraction of their output that
//     must cross the network (a Beefy node keeps 1/N_B of its filtered
//     rows; a Wimpy node ships everything);
//   - when aggregate crossing traffic exceeds the ingestion cap, all
//     senders throttle proportionally (TCP-fair sharing of the
//     bottleneck).
//
// With N_W = 0 the heterogeneous model reduces exactly to the
// homogeneous one, which the tests assert.
package model

import (
	"fmt"
	"math"

	"repro/internal/hw"
)

// Params collects the Table 3 model inputs.
type Params struct {
	NB, NW int     // # Beefy / Wimpy nodes
	MB, MW float64 // memory per node type (MB)
	I      float64 // disk bandwidth (MB/s), uniform across node types
	L      float64 // network bandwidth (MB/s), uniform across node types

	Bld, Prb   float64 // build/probe table sizes (MB)
	Sbld, Sprb float64 // predicate selectivities (0..1]

	CB, CW float64 // maximum CPU bandwidth (MB/s)
	GB, GW float64 // inherent engine CPU utilization constants

	FB, FW func(util float64) float64 // node power models f_B, f_W

	// WarmCache selects the §5.3.1 validation variant where the scan
	// rate is the CPU bandwidth C rather than the disk rate I.
	WarmCache bool

	// ForceHeterogeneous forces Wimpy nodes into scan/filter-only roles
	// even when the H predicate holds. The paper's SF400 validation runs
	// (§5.2.2, Figures 7(b)/9) execute heterogeneously at ORDERS 10%
	// because the Wimpy nodes' 8 GB must also cache their share of the
	// warm working set, which the pure hash-table H test does not see.
	ForceHeterogeneous bool

	// JoinWork is the CPU bytes charged per qualified byte of hash-table
	// build/probe work on the table-owning nodes, matching the engine's
	// Config.JoinWork. The published homogeneous equations fold this into
	// C's calibration; the heterogeneous reconstruction needs it
	// explicitly. Default 1.0.
	JoinWork float64
}

// FromSpecs builds Params from hardware catalog entries, taking I and L
// from the Beefy spec (the paper's uniformity assumption).
func FromSpecs(nb int, beefy hw.Spec, nw int, wimpy hw.Spec) Params {
	return Params{
		NB: nb, NW: nw,
		MB: beefy.MemoryMB, MW: wimpy.MemoryMB,
		I: beefy.DiskMBps, L: beefy.NetMBps,
		CB: beefy.CPUBandwidth, CW: wimpy.CPUBandwidth,
		GB: beefy.UtilFloor, GW: wimpy.UtilFloor,
		FB: beefy.Power.Watts, FW: wimpy.Power.Watts,
		JoinWork: 1.0,
	}
}

// N returns the total node count.
func (p Params) N() int { return p.NB + p.NW }

func (p Params) joinWork() float64 {
	if p.JoinWork == 0 {
		return 1.0
	}
	return p.JoinWork
}

// scanRate is the raw MB/s a node's scan path can sustain before the
// predicate: disk-bound when cold, CPU-bound when warm.
func (p Params) scanRate(cpuBandwidth float64) float64 {
	if p.WarmCache {
		return cpuBandwidth
	}
	return p.I
}

// Validate checks parameter sanity. Each bound is written so that NaN
// fails it, and the error names the offending field.
func (p Params) Validate() error {
	switch {
	case p.NB < 0 || p.NW < 0 || p.N() == 0:
		return fmt.Errorf("model: need at least one node (NB=%d NW=%d)", p.NB, p.NW)
	case !(p.Sbld > 0 && p.Sbld <= 1):
		return fmt.Errorf("model: build selectivity Sbld must be in (0,1], got %v", p.Sbld)
	case !(p.Sprb > 0 && p.Sprb <= 1):
		return fmt.Errorf("model: probe selectivity Sprb must be in (0,1], got %v", p.Sprb)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"disk bandwidth I", p.I},
		{"network bandwidth L", p.L},
		{"Beefy CPU bandwidth CB", p.CB},
		{"build table size Bld", p.Bld},
		{"probe table size Prb", p.Prb},
	} {
		if !(f.v > 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("model: %s must be positive and finite, got %v", f.name, f.v)
		}
	}
	switch {
	case p.FB == nil:
		return fmt.Errorf("model: missing Beefy power model")
	case p.NW > 0 && (p.FW == nil || p.CW <= 0):
		return fmt.Errorf("model: Wimpy nodes need CW and FW")
	}
	return nil
}

// CanBuildOnWimpy evaluates the Table 3 predicate H: the Wimpy memory
// holds its share of the build hash table, permitting homogeneous
// execution.
func (p Params) CanBuildOnWimpy() bool {
	if p.NW == 0 {
		return true
	}
	perNode := p.Bld * p.Sbld / float64(p.N())
	return p.MW >= perNode
}

// CanBuildOnBeefy checks that the Beefy nodes alone can hold the build
// table under heterogeneous execution (the reason Figure 10(b) stops at
// 2B,6W: "the aggregate Beefy memory cannot store the in-memory hash
// table" below that).
func (p Params) CanBuildOnBeefy() bool {
	if p.NB == 0 {
		return false
	}
	perNode := p.Bld * p.Sbld / float64(p.NB)
	return p.MB >= perNode
}

// Result reports modelled time and energy, split by phase.
type Result struct {
	Tbld, Tprb float64 // phase response times (s)
	Ebld, Eprb float64 // phase energies (J)
	// Heterogeneous reports which execution mode the model chose.
	Heterogeneous bool
}

// Seconds returns total response time.
func (r Result) Seconds() float64 { return r.Tbld + r.Tprb }

// Joules returns total energy.
func (r Result) Joules() float64 { return r.Ebld + r.Eprb }

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// phaseHomogeneous evaluates one phase (build or probe) of the published
// homogeneous model: Table size D (MB), selectivity S.
//
//	R = I*S              if I*S < L     (disk/scan-bound)
//	    N*L/(N-1)        otherwise      (shuffle egress-bound)
//	U = I                if I*S < L
//	    (N*L/(N-1))/S    otherwise
//	T = D*S / (N*R)
//	E = T * (NB*fB(GB+U/CB) + NW*fW(GW+U/CW))
func (p Params) phaseHomogeneous(d, s float64) (t, e float64) {
	n := float64(p.N())
	scanB := p.scanRate(p.CB)
	scanW := scanB
	if p.NW > 0 {
		scanW = p.scanRate(p.CW)
	}
	// With uniform I the paper uses a single R; under warm cache the two
	// node classes scan at their own CPU rates, so take the slower when
	// scan-bound (the faster class waits at the phase barrier; modelling
	// per-class rates changes validation errors by <1% for the paper's
	// parameter ranges).
	scan := scanB
	if scanW < scan {
		scan = scanW
	}
	var r, u float64
	netR := scan * s // single node: no exchange; scan-bound by definition
	if n > 1 {
		netR = n * p.L / (n - 1)
	}
	// The paper's two-branch form (I*S < L ? I*S : N*L/(N-1)) is
	// ambiguous in the narrow band L <= I*S < N*L/(N-1), where the
	// "network-bound" rate would exceed what the scan path can produce.
	// The physically consistent reading is R = min(I*S, N*L/(N-1)):
	// production can never exceed the scan path, and the shuffle egress
	// (flow R*(N-1)/N <= L) caps it from the other side.
	if scan*s <= netR {
		r, u = scan*s, scan
	} else {
		r = netR
		u = r / s
	}
	t = d * s / (n * r)
	watts := float64(p.NB) * p.FB(clamp01(p.GB+u/p.CB))
	if p.NW > 0 {
		watts += float64(p.NW) * p.FW(clamp01(p.GW+u/p.CW))
	}
	return t, t * watts
}

// PhaseNetworkBound reports whether a homogeneous phase with selectivity
// s is limited by the network (shuffle egress) rather than by the scan
// path — the paper's fundamental bottleneck test (§4.1): a phase is
// network-bound when the filtered scan rate I*S (or C*S warm) reaches
// the NIC rate L.
func (p Params) PhaseNetworkBound(s float64) bool {
	if p.N() <= 1 {
		return false
	}
	return p.scanRate(p.CB)*s >= p.L
}

// PhaseRates returns the per-class steady-state filtered production
// rates (MB/s per node) of one heterogeneous phase with table selectivity
// s. Exposed for validation: crossing traffic nb*rB*(nb-1)/nb + nw*rW
// never exceeds the ingestion cap NB*L.
func (p Params) PhaseRates(s float64) (rB, rW float64) {
	nb, nw := float64(p.NB), float64(p.NW)

	// Crossing fractions: share of a node's filtered output that must
	// traverse the network.
	crossB := (nb - 1) / nb
	crossW := 1.0

	// Per-sender filtered capacity: scan path times selectivity, capped
	// by the egress link divided by the crossing fraction (a sender whose
	// output mostly stays local can run faster than L).
	capB := p.scanRate(p.CB) * s
	if crossB > 0 && capB > p.L/crossB {
		capB = p.L / crossB
	}
	capW := p.scanRate(p.CW) * s
	if capW > p.L/crossW {
		capW = p.L / crossW
	}

	// Aggregate crossing traffic vs the Beefy ingestion cap NB*L;
	// throttle proportionally when exceeded.
	crossing := nb*capB*crossB + nw*capW*crossW
	scale := 1.0
	if ingest := nb * p.L; crossing > ingest {
		scale = ingest / crossing
	}
	return capB * scale, capW * scale
}

// wimpyAloneRate returns the throttled per-Wimpy filtered rate once the
// Beefy partitions have drained and only Wimpy senders remain.
func (p Params) wimpyAloneRate(s float64) float64 {
	nb, nw := float64(p.NB), float64(p.NW)
	capW := p.scanRate(p.CW) * s
	if capW > p.L {
		capW = p.L
	}
	if crossing := nw * capW; crossing > nb*p.L {
		capW *= nb * p.L / crossing
	}
	return capW
}

// phaseHeterogeneous evaluates one phase of the reconstructed
// heterogeneous model (see package comment).
//
// Each node drains its own fixed partition (d/N raw, d*s/N qualified) at
// its class rate; work does not migrate between nodes. Because the Beefy
// partitions drain faster, the phase has up to two stages:
//
//	stage 1: all nodes send; rates are the PhaseRates (proportionally
//	         throttled by the N_B*L ingestion cap);
//	stage 2: only the Wimpy nodes are still sending; the ingestion cap
//	         is re-shared among them (FCFS ports redistribute bandwidth
//	         to the remaining senders).
func (p Params) phaseHeterogeneous(d, s float64) (t, e float64) {
	nb, nw := float64(p.NB), float64(p.NW)
	qNode := d * s / (nb + nw) // qualified MB per node's partition

	rB1, rW1 := p.PhaseRates(s)
	tB := qNode / rB1 // Beefy partitions drain at stage-1 rates
	tW := qNode / rW1
	jw := p.joinWork()

	if p.NW == 0 || tW <= tB+1e-12 {
		// Single stage: Wimpies finish with (or before) the Beefies.
		x := nb*rB1 + nw*rW1
		uB := clamp01(p.GB + (rB1/s+jw*x/nb)/p.CB)
		uW := clamp01(p.GW + (rW1/s)/p.CW)
		return tB, tB * (nb*p.FB(uB) + nw*p.FW(uW))
	}

	// Stage 1: everyone sends until the Beefy partitions are drained.
	t1 := tB
	x1 := nb*rB1 + nw*rW1
	uB1 := clamp01(p.GB + (rB1/s+jw*x1/nb)/p.CB)
	uW1 := clamp01(p.GW + (rW1/s)/p.CW)
	e1 := t1 * (nb*p.FB(uB1) + nw*p.FW(uW1))

	// Stage 2: Wimpy remainder at the re-shared rate; Beefy nodes only
	// ingest and probe/build.
	rW2 := p.wimpyAloneRate(s)
	rem := qNode - t1*rW1
	t2 := rem / rW2
	x2 := nw * rW2
	uB2 := clamp01(p.GB + (jw*x2/nb)/p.CB)
	uW2 := clamp01(p.GW + (rW2/s)/p.CW)
	e2 := t2 * (nb*p.FB(uB2) + nw*p.FW(uW2))

	return t1 + t2, e1 + e2
}

// HashJoin evaluates the full model for a dual-shuffle hash join,
// choosing homogeneous or heterogeneous execution by the H predicate
// (heterogeneous when the Wimpy nodes cannot hold their hash-table
// share), exactly as P-store does.
func (p Params) HashJoin() (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if p.JoinWork == 0 {
		p.JoinWork = 1.0
	}
	var r Result
	if p.NW == 0 || (p.CanBuildOnWimpy() && !p.ForceHeterogeneous) {
		r.Tbld, r.Ebld = p.phaseHomogeneous(p.Bld, p.Sbld)
		r.Tprb, r.Eprb = p.phaseHomogeneous(p.Prb, p.Sprb)
		return r, nil
	}
	if !p.CanBuildOnBeefy() {
		return Result{}, fmt.Errorf("model: %dB,%dW cannot hold the build hash table (%.0f MB qualified)",
			p.NB, p.NW, p.Bld*p.Sbld)
	}
	r.Heterogeneous = true
	r.Tbld, r.Ebld = p.phaseHeterogeneous(p.Bld, p.Sbld)
	r.Tprb, r.Eprb = p.phaseHeterogeneous(p.Prb, p.Sprb)
	return r, nil
}

// DesignPoint is one cluster mix evaluated by a sweep.
type DesignPoint struct {
	NB, NW int
	Res    Result
	Err    error
}

// Label renders the paper's "xB,yW" naming.
func (d DesignPoint) Label() string { return fmt.Sprintf("%dB,%dW", d.NB, d.NW) }

// SweepMix evaluates every Beefy/Wimpy mix of an n-node cluster, from
// (n)B,0W down to (0)B,nW — the Figure 1(b)/10/11 methodology; the
// figures normalize against the first, all-Beefy, point. Infeasible
// mixes (hash table does not fit) carry a non-nil Err.
func SweepMix(base Params, n int) []DesignPoint {
	var out []DesignPoint
	for nb := n; nb >= 0; nb-- {
		p := base
		p.NB, p.NW = nb, n-nb
		res, err := p.HashJoin()
		out = append(out, DesignPoint{NB: nb, NW: n - nb, Res: res, Err: err})
	}
	return out
}

// Knee returns the index of the "knee" in a mix sweep: the last design
// (scanning from all-Beefy toward all-Wimpy) whose PROBE-phase rate is
// within tol of the all-Beefy design's. The paper defines the knee on the
// probe phase: "to the right of the knee, the heterogeneous parallel
// plans saturate the Beefy node network ingestion during the probe
// phase; to the left ... nodes are sending data as fast as their IO
// subsystem (and table selectivity) can sustain" (§5.4). Figure 11 tracks
// how this knee moves toward Wimpier designs as the probe selectivity
// tightens.
func Knee(points []DesignPoint, tol float64) int {
	if len(points) == 0 {
		return 0
	}
	refT := points[0].Res.Tprb
	knee := 0
	for i, dp := range points {
		if dp.Err == nil && dp.Res.Tprb > 0 && refT/dp.Res.Tprb >= 1-tol {
			knee = i
		}
	}
	return knee
}

// RelErr is a helper for validation reporting: |a-b| / max(|a|,|b|).
func RelErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
