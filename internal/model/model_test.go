package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/power"
)

// section54Params returns the Figure 1(b)/10/11 parameter set: cluster-V
// Beefy nodes, Laptop B Wimpy nodes, I=1200, L=100, M_B=47000, M_W=7000;
// ORDERS 700 GB, LINEITEM 2.8 TB.
func section54Params() Params {
	p := FromSpecs(8, hw.ClusterV(), 0, hw.WimpyModelNode())
	p.Bld = 700_000   // 700 GB in MB
	p.Prb = 2_800_000 // 2.8 TB in MB
	return p
}

// normalized maps a mix sweep to its points normalised to the all-Beefy
// design through power.Normalize, as the figures print them, index for
// index: an infeasible mix reads (0, 0).
func normalized(pts []DesignPoint) []power.Point {
	pp := make([]power.Point, len(pts))
	for i, dp := range pts {
		pp[i] = power.Point{Label: dp.Label(), Seconds: dp.Res.Seconds(), Joules: dp.Res.Joules()}
	}
	return power.Normalize(pp, pp[0])
}

func TestValidate(t *testing.T) {
	p := section54Params()
	p.Sbld, p.Sprb = 0.1, 0.1
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Sbld = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero selectivity validated")
	}
	bad = p
	bad.NB, bad.NW = 0, 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero nodes validated")
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf in a selectivity, rate or
// table size are refused with an error naming the field, not passed on
// to the model as if they were in range.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(p *Params)
	}{
		{"Sbld", func(p *Params) { p.Sbld = nan }},
		{"Sbld", func(p *Params) { p.Sbld = inf }},
		{"Sprb", func(p *Params) { p.Sprb = nan }},
		{"Sprb", func(p *Params) { p.Sprb = -inf }},
		{"bandwidth I", func(p *Params) { p.I = nan }},
		{"bandwidth I", func(p *Params) { p.I = inf }},
		{"bandwidth L", func(p *Params) { p.L = nan }},
		{"bandwidth CB", func(p *Params) { p.CB = inf }},
		{"Bld", func(p *Params) { p.Bld = nan }},
		{"Bld", func(p *Params) { p.Bld = -inf }},
		{"Prb", func(p *Params) { p.Prb = inf }},
		{"Prb", func(p *Params) { p.Prb = nan }},
	} {
		p := section54Params()
		p.Sbld, p.Sprb = 0.1, 0.1
		tc.set(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.field, err, tc.field)
		}
		if _, err := p.HashJoin(); err == nil {
			t.Errorf("%s: HashJoin accepted a non-finite field", tc.field)
		}
	}
}

func TestHPredicate(t *testing.T) {
	p := section54Params()
	p.NB, p.NW = 7, 1
	// O 1%: qualified build = 7000 MB over 8 nodes = 875 MB/node <= 7000.
	p.Sbld = 0.01
	if !p.CanBuildOnWimpy() {
		t.Fatal("H should hold at O 1% (875 MB/node vs 7000 MB)")
	}
	// O 10%: 70000/8 = 8750 MB/node > 7000 => heterogeneous.
	p.Sbld = 0.10
	if p.CanBuildOnWimpy() {
		t.Fatal("H should fail at O 10% (8750 MB/node vs 7000 MB)")
	}
}

func TestBeefyCapacityBound(t *testing.T) {
	// Figure 10(b)/11 stop at 2B: 70000/2 = 35000 <= 47000 OK;
	// 1B: 70000 > 47000 infeasible.
	p := section54Params()
	p.Sbld, p.Sprb = 0.10, 0.10
	p.NB, p.NW = 2, 6
	if !p.CanBuildOnBeefy() {
		t.Fatal("2B should hold the O 10% hash table")
	}
	p.NB, p.NW = 1, 7
	if p.CanBuildOnBeefy() {
		t.Fatal("1B should NOT hold the O 10% hash table")
	}
	if _, err := p.HashJoin(); err == nil {
		t.Fatal("infeasible design did not error")
	}
}

func TestHomogeneousDiskBoundPhase(t *testing.T) {
	// O 1%: I*S = 12 < L = 100 => disk-bound: R = 12 MB/s, U = I.
	p := section54Params()
	p.Sbld, p.Sprb = 0.01, 0.01
	r, err := p.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	// T_bld = Bld*S/(N*R) = 700000*0.01/(8*12) = 72.92 s.
	want := 700_000.0 * 0.01 / (8 * 12)
	if math.Abs(r.Tbld-want)/want > 1e-9 {
		t.Fatalf("Tbld = %v, want %v", r.Tbld, want)
	}
	// U = I = 1200: utilB = 0.25 + 1200/5037, on all 8 Beefy nodes.
	wantU := 0.25 + 1200.0/5037
	if wantE := r.Tbld * 8 * hw.ClusterV().Power.Watts(wantU); math.Abs(r.Ebld-wantE)/wantE > 1e-9 {
		t.Fatalf("Ebld = %v, want T*8*fB(%v) = %v", r.Ebld, wantU, wantE)
	}
	if r.Heterogeneous {
		t.Fatal("O 1% should be homogeneous")
	}
}

func TestHomogeneousNetworkBoundPhase(t *testing.T) {
	// O 10%: I*S = 120 > L = 100 => network-bound: R = N*L/(N-1) = 114.29.
	p := section54Params()
	p.NB = 8
	p.Sbld, p.Sprb = 0.10, 0.10
	r, err := p.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	wantR := 8.0 * 100 / 7
	wantT := 700_000.0 * 0.10 / (8 * wantR)
	if math.Abs(r.Tbld-wantT)/wantT > 1e-9 {
		t.Fatalf("Tbld = %v, want %v", r.Tbld, wantT)
	}
	// U = R/S = 1142.9: utilB = 0.25 + 1142.9/5037 = 0.4769.
	wantU := 0.25 + wantR/0.10/5037
	if wantE := r.Tbld * 8 * hw.ClusterV().Power.Watts(wantU); math.Abs(r.Ebld-wantE)/wantE > 1e-9 {
		t.Fatalf("Ebld = %v, want T*8*fB(%v) = %v", r.Ebld, wantU, wantE)
	}
}

func TestEnergyIsTimeTimesPower(t *testing.T) {
	p := section54Params()
	p.Sbld, p.Sprb = 0.01, 0.05
	r, err := p.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	// Both phases are disk-bound (I*S = 12 and 60 < L = 100), so
	// U = I = 1200 in each: utilB = 0.25 + 1200/5037 on 8 Beefy nodes.
	fB := hw.ClusterV().Power.Watts
	wantU := 0.25 + 1200.0/5037
	if wantE := r.Tbld * 8 * fB(wantU); math.Abs(r.Ebld-wantE)/wantE > 1e-9 {
		t.Fatalf("Ebld = %v, want %v", r.Ebld, wantE)
	}
	if wantE := r.Tprb * 8 * fB(wantU); math.Abs(r.Eprb-wantE)/wantE > 1e-9 {
		t.Fatalf("Eprb = %v, want %v", r.Eprb, wantE)
	}
}

func TestHeteroReducesToHomogeneousAtNW0(t *testing.T) {
	p := section54Params()
	p.Sbld, p.Sprb = 0.10, 0.10
	p.JoinWork = 0 // defaulted to 1 either way; isolate network math
	homT, homE := p.phaseHomogeneous(p.Prb, p.Sprb)
	hetT, _ := p.phaseHeterogeneous(p.Prb, p.Sprb)
	if math.Abs(homT-hetT)/homT > 1e-9 {
		t.Fatalf("NW=0: hetero T=%v vs homog T=%v", hetT, homT)
	}
	_ = homE // energies differ by the explicit JoinWork term only
}

func TestHeterogeneousIngestBound(t *testing.T) {
	// Figure 10(b) regime: O 10%, L 10%, 2B,6W. Probe phase is
	// ingestion-bound: X ~= NB*L adjusted for local traffic; performance
	// ~0.25 of 8B,0W.
	p := section54Params()
	p.Sbld, p.Sprb = 0.10, 0.10
	p8 := p
	p8.NB, p8.NW = 8, 0
	r8, err := p8.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.NB, p2.NW = 2, 6
	r2, err := p2.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Heterogeneous {
		t.Fatal("2B,6W at O 10% must be heterogeneous")
	}
	perf := r8.Seconds() / r2.Seconds()
	if perf < 0.2 || perf > 0.35 {
		t.Fatalf("2B,6W relative performance = %.3f, want ~0.25 (paper Fig 10(b))", perf)
	}
}

func TestFig10aHomogeneousSweepShape(t *testing.T) {
	// O 1%, L 10%: homogeneous for every mix, performance flat (disk-
	// bound at uniform I), energy dropping steeply with more Wimpies
	// ("the energy consumed by the hash join drops by almost 90%").
	p := section54Params()
	p.Sbld, p.Sprb = 0.01, 0.10
	pts := SweepMix(p, 8)
	if len(pts) != 9 {
		t.Fatalf("sweep has %d points", len(pts))
	}
	norm := normalized(pts)
	for i, dp := range pts {
		if dp.Err != nil {
			t.Fatalf("%s infeasible: %v", dp.Label(), dp.Err)
		}
		if dp.Res.Heterogeneous {
			t.Fatalf("%s should be homogeneous", dp.Label())
		}
		if math.Abs(norm[i].NormPerf-1.0) > 0.02 {
			t.Fatalf("%s performance %.3f, want ~1.0 (I/O masks Wimpy CPU)", dp.Label(), norm[i].NormPerf)
		}
	}
	allW := norm[len(norm)-1]
	if pts[len(pts)-1].NB != 0 {
		t.Fatal("last sweep point should be 0B,8W")
	}
	if allW.NormEnerg > 0.2 {
		t.Fatalf("0B,8W energy = %.3f, want < 0.2 (~90%% drop)", allW.NormEnerg)
	}
	// Energy decreases monotonically as Wimpies replace Beefies.
	for i := 1; i < len(norm); i++ {
		if norm[i].NormEnerg >= norm[i-1].NormEnerg {
			t.Fatalf("energy not decreasing at %s", norm[i].Label)
		}
	}
}

func TestFig10bHeterogeneousSweepShape(t *testing.T) {
	// O 10%, L 10%: performance collapses with fewer Beefies while energy
	// stays near 1.0 ("does not drop below 95%" in the paper; our
	// reconstruction keeps it within [0.9, 1.25]).
	p := section54Params()
	p.Sbld, p.Sprb = 0.10, 0.10
	pts := SweepMix(p, 8)
	// Feasible designs: 8B..2B (0B/1B cannot hold the table).
	for _, dp := range pts {
		if dp.NB >= 2 && dp.Err != nil {
			t.Fatalf("%s should be feasible: %v", dp.Label(), dp.Err)
		}
		if dp.NB < 2 && dp.Err == nil {
			t.Fatalf("%s should be infeasible", dp.Label())
		}
	}
	norm := normalized(pts)
	last := norm[6] // 2B,6W
	if pts[6].NB != 2 {
		t.Fatalf("index 6 is %s, want 2B,6W", last.Label)
	}
	if last.NormPerf > 0.35 {
		t.Fatalf("2B,6W perf %.3f, want severe degradation (~0.25)", last.NormPerf)
	}
	for _, pt := range norm[:7] {
		if pt.NormEnerg < 0.9 || pt.NormEnerg > 1.25 {
			t.Fatalf("%s energy %.3f outside [0.9,1.25]: no significant savings expected", pt.Label, pt.NormEnerg)
		}
	}
}

func TestFig1bShape(t *testing.T) {
	// O 10%, L 1%: heterogeneous execution, but the probe (dominant)
	// phase is scan-bound, so mixes retain performance while saving
	// energy: points fall BELOW the EDP line (NormEnerg < NormPerf).
	p := section54Params()
	p.Sbld, p.Sprb = 0.10, 0.01
	pts := SweepMix(p, 8)
	norm := normalized(pts)
	found := false
	for i, dp := range pts {
		if dp.Err != nil || dp.NB == 8 {
			continue
		}
		if !dp.Res.Heterogeneous {
			t.Fatalf("%s should be heterogeneous at O 10%%", dp.Label())
		}
		if norm[i].NormEnerg < norm[i].NormPerf-0.01 {
			found = true
		}
	}
	if !found {
		t.Fatal("no design below the EDP line; Figure 1(b) expects several")
	}
}

func TestFig11KneeMovesRightAsProbeSelectivityTightens(t *testing.T) {
	// O 10%, L 10%..2%: the knee (last mix retaining ~full performance)
	// moves toward Wimpier designs as fewer probe tuples qualify.
	p := section54Params()
	p.Sbld = 0.10
	knees := map[float64]int{}
	for _, sl := range []float64{0.10, 0.06, 0.02} {
		q := p
		q.Sprb = sl
		pts := SweepMix(q, 8)
		knees[sl] = Knee(pts, 0.05)
	}
	if !(knees[0.02] > knees[0.06] && knees[0.06] > knees[0.10]) {
		t.Fatalf("knee positions %v: want later knees at tighter selectivity", knees)
	}
	// At L 2% the probe phase never saturates ingestion for any feasible
	// design, so the knee sits at the Wimpiest feasible mix (2B,6W).
	if knees[0.02] < 5 {
		t.Fatalf("L 2%% knee at %d, want near the right end", knees[0.02])
	}
}

func TestFig11LowSelectivityDipsBelowEDP(t *testing.T) {
	// At L 2% the curves drop well below the EDP line.
	p := section54Params()
	p.Sbld, p.Sprb = 0.10, 0.02
	pts := SweepMix(p, 8)
	norm := normalized(pts)
	best := 1.0
	for i, dp := range pts {
		if dp.Err == nil && norm[i].NormPerf > 0 {
			if r := norm[i].NormEDP(); r < best {
				best = r
			}
		}
	}
	if best > 0.8 {
		t.Fatalf("best normalized EDP = %.3f, want < 0.8 (well below the line)", best)
	}
}

func TestWarmCacheUsesCPURates(t *testing.T) {
	p := section54Params()
	p.Sbld, p.Sprb = 0.001, 0.001 // deeply scan-bound
	cold, err := p.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	p.WarmCache = true
	warm, err := p.HashJoin()
	if err != nil {
		t.Fatal(err)
	}
	// Warm scan at C=5037 > I=1200: warm must be faster when scan-bound.
	if warm.Seconds() >= cold.Seconds() {
		t.Fatalf("warm %.1f s not faster than cold %.1f s", warm.Seconds(), cold.Seconds())
	}
}

// Property: energy and time are positive and finite for any feasible
// parameter combination.
func TestModelTotalityProperty(t *testing.T) {
	f := func(nb8, nw8, sb8, sp8 uint8) bool {
		nb := int(nb8%8) + 1
		nw := int(nw8 % 8)
		sb := float64(sb8%100)/100 + 0.005
		sp := float64(sp8%100)/100 + 0.005
		p := section54Params()
		p.NB, p.NW = nb, nw
		p.Sbld, p.Sprb = sb, sp
		r, err := p.HashJoin()
		if err != nil {
			return true // infeasible designs may error
		}
		ok := r.Seconds() > 0 && r.Joules() > 0 &&
			!math.IsInf(r.Seconds(), 0) && !math.IsNaN(r.Seconds()) &&
			!math.IsInf(r.Joules(), 0) && !math.IsNaN(r.Joules())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: under heterogeneous execution the crossing traffic implied by
// the modelled phase rate never exceeds the Beefy ingestion capacity
// N_B*L — the physical constraint the reconstruction is built around.
func TestIngestionCapRespectedProperty(t *testing.T) {
	f := func(nb8, nw8, s8 uint8) bool {
		nb := int(nb8%6) + 2
		nw := int(nw8%6) + 1
		s := float64(s8%20)/100 + 0.01
		p := section54Params()
		p.NB, p.NW = nb, nw
		p.Sbld, p.Sprb = 0.10, s
		if p.CanBuildOnWimpy() || !p.CanBuildOnBeefy() {
			return true
		}
		if _, err := p.HashJoin(); err != nil {
			return true
		}
		// Exact crossing flow from the per-class rates: Beefy ships
		// (nb-1)/nb of its output, Wimpy ships everything.
		rB, rW := p.PhaseRates(s)
		crossing := float64(nb)*rB*float64(nb-1)/float64(nb) + float64(nw)*rW
		return crossing <= float64(nb)*p.L*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: more network bandwidth never slows the modelled join.
func TestMonotoneInBandwidthProperty(t *testing.T) {
	f := func(nb8, s8 uint8) bool {
		nb := int(nb8%7) + 1
		s := float64(s8%30)/100 + 0.01
		p := section54Params()
		p.NB, p.NW = nb, 8-nb
		p.Sbld, p.Sprb = 0.10, s
		p.L = 100
		r1, err1 := p.HashJoin()
		p.L = 200
		r2, err2 := p.HashJoin()
		if err1 != nil || err2 != nil {
			return true
		}
		return r2.Seconds() <= r1.Seconds()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(100, 110) != 10.0/110 {
		t.Fatal("RelErr wrong")
	}
	if RelErr(0, 0) != 0 {
		t.Fatal("RelErr(0,0)")
	}
}
