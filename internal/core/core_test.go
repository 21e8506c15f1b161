package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

// fig12Params returns the Figure 12(c) workload: ORDERS 10% / LINEITEM 2%
// dual-shuffle join on §5.4 hardware.
func fig12Params(sbld, sprb float64) model.Params {
	p := model.FromSpecs(8, hw.ClusterV(), 0, hw.WimpyModelNode())
	p.Bld, p.Prb = 700_000, 2_800_000
	p.Sbld, p.Sprb = sbld, sprb
	return p
}

func TestExploreCoversSizesAndMixes(t *testing.T) {
	d := Designer{Base: fig12Params(0.10, 0.02), MaxNodes: 8}
	cands, err := d.Explore()
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, c := range cands {
		labels[c.Label()] = true
	}
	for _, want := range []string{"8B", "4B", "1B", "7B,1W", "2B,6W"} {
		if !labels[want] {
			t.Errorf("design %s not explored (have %v)", want, labels)
		}
	}
	// 1B,7W and 0B,8W are infeasible at O 10% (table does not fit).
	if labels["1B,7W"] || labels["0B,8W"] {
		t.Error("infeasible designs not skipped")
	}
}

func TestExploreNormalizesAgainstFullBeefy(t *testing.T) {
	d := Designer{Base: fig12Params(0.10, 0.02), MaxNodes: 8}
	cands, _ := d.Explore()
	for _, c := range cands {
		if c.NB == 8 && c.NW == 0 {
			if math.Abs(c.NormPerf-1) > 1e-9 || math.Abs(c.NormEnergy-1) > 1e-9 {
				t.Fatalf("reference not (1,1): %+v", c)
			}
		}
	}
}

func TestClassifyBottlenecked(t *testing.T) {
	// O 10% shuffle join is network-bound: sub-linear speedup.
	d := Designer{Base: fig12Params(0.10, 0.10), MaxNodes: 8}
	class, err := d.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if class != Bottlenecked {
		t.Fatalf("O10/L10 classified %v, want bottlenecked", class)
	}
}

func TestClassifyScalable(t *testing.T) {
	// Deeply selective predicates: scan-bound on both phases => ideal
	// speedup (the Q1 regime of Figure 12(a)).
	d := Designer{Base: fig12Params(0.01, 0.01), MaxNodes: 8}
	class, err := d.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if class != Scalable {
		t.Fatalf("scan-bound join classified %v, want scalable", class)
	}
}

func TestRecommendScalableUsesAllNodes(t *testing.T) {
	d := Designer{Base: fig12Params(0.01, 0.01), MaxNodes: 8}
	adv, err := d.Recommend(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Class != Scalable {
		t.Fatalf("class = %v", adv.Class)
	}
	if adv.Best.NB != 8 || adv.Best.NW != 0 {
		t.Fatalf("scalable recommendation = %s, want 8B (Fig 12(a))", adv.Best.Label())
	}
}

func TestRecommendFigure12c(t *testing.T) {
	// The paper's Figure 12(c) walkthrough: O 10%, L 2%, target = 0.6 of
	// the 8-Beefy design. The best homogeneous design is ~5B; a 2B,6W
	// heterogeneous design consumes less energy AND performs better.
	d := Designer{Base: fig12Params(0.10, 0.02), MaxNodes: 8}
	adv, err := d.Recommend(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Class != Bottlenecked {
		t.Fatalf("class = %v, want bottlenecked", adv.Class)
	}
	if adv.Best.NW == 0 {
		t.Fatalf("recommendation = %s, want a heterogeneous design (Fig 12(c))", adv.Best.Label())
	}
	if adv.Best.Joules >= adv.BestHomogeneous.Joules {
		t.Fatalf("hetero %s (%.0f J) not better than homogeneous %s (%.0f J)",
			adv.Best.Label(), adv.Best.Joules, adv.BestHomogeneous.Label(), adv.BestHomogeneous.Joules)
	}
	if adv.Best.NormPerf < 0.6 {
		t.Fatalf("recommended design misses the target: %.3f", adv.Best.NormPerf)
	}
}

func TestRecommendBottleneckedHomogeneousShrinks(t *testing.T) {
	// With only homogeneous candidates available (Wimpy memory too small
	// for ANY mix is hard to arrange; instead verify the best homogeneous
	// among candidates shrinks the cluster), Figure 12(b): fewest nodes
	// meeting the target.
	d := Designer{Base: fig12Params(0.10, 0.10), MaxNodes: 8}
	adv, err := d.Recommend(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if adv.BestHomogeneous.NB >= 8 {
		t.Fatalf("best homogeneous = %s; expected a smaller cluster to save energy",
			adv.BestHomogeneous.Label())
	}
	if adv.BestHomogeneous.NormPerf < 0.6 {
		t.Fatal("homogeneous recommendation misses target")
	}
}

func TestRecommendRejectsBadTarget(t *testing.T) {
	d := Designer{Base: fig12Params(0.10, 0.10), MaxNodes: 8}
	for _, target := range []float64{0, -1, 1.5} {
		if _, err := d.Recommend(target); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

// TestRecommendRejectsNonFinite: a NaN target, and NaN or infinite
// workload parameters, are refused with an error naming what is wrong
// rather than reported as an unmet performance target.
func TestRecommendRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		base   model.Params
		target float64
		want   string
	}{
		{"NaN target", fig12Params(0.10, 0.10), nan, "performance target"},
		{"NaN build selectivity", fig12Params(nan, 0.10), 0.6, "Sbld"},
		{"NaN probe selectivity", fig12Params(0.10, nan), 0.6, "Sprb"},
		{"NaN build size", withSizes(fig12Params(0.10, 0.10), nan, 2_800_000), 0.6, "Bld"},
		{"infinite probe size", withSizes(fig12Params(0.10, 0.10), 700_000, inf), 0.6, "Prb"},
	} {
		d := Designer{Base: tc.base, MaxNodes: 8}
		_, err := d.Recommend(tc.target)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recommend = %v, want an error naming %q", tc.name, err, tc.want)
		} else if strings.Contains(err.Error(), "infeasible") {
			t.Errorf("%s: Recommend = %v, an input error reported as an infeasible design", tc.name, err)
		}
	}
}

func withSizes(p model.Params, bld, prb float64) model.Params {
	p.Bld, p.Prb = bld, prb
	return p
}

func TestRecommendImpossibleTarget(t *testing.T) {
	// Nothing outperforms the reference, so a target of exactly 1.0 can
	// only be met by the reference itself; that still succeeds. But a
	// workload where every candidate errs must fail cleanly — use a
	// MaxNodes=0 designer.
	d := Designer{Base: fig12Params(0.10, 0.10), MaxNodes: 0}
	if _, err := d.Explore(); err == nil {
		t.Fatal("MaxNodes=0 accepted")
	}
}

func TestCandidateLabels(t *testing.T) {
	if (Candidate{NB: 8}).Label() != "8B" {
		t.Fatal("homogeneous label")
	}
	if (Candidate{NB: 2, NW: 6}).Label() != "2B,6W" {
		t.Fatal("mixed label")
	}
}

func TestCandidatesSortedByEnergyAmongTargetMeeting(t *testing.T) {
	d := Designer{Base: fig12Params(0.10, 0.02), MaxNodes: 8}
	adv, err := d.Recommend(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if adv.Candidates[0].Label() != adv.Best.Label() {
		t.Fatalf("first candidate %s != best %s", adv.Candidates[0].Label(), adv.Best.Label())
	}
	if adv.Principle == "" {
		t.Fatal("no principle text")
	}
}

func TestDesignerDVFSDimension(t *testing.T) {
	// With the DVFS dimension enabled on a network-bound workload, a
	// downclocked design should dominate: same performance (the wire is
	// the limit), lower energy.
	base := fig12Params(0.10, 0.10)
	base.WarmCache = true
	d := Designer{Base: base, MaxNodes: 8, Frequencies: []float64{0.6}}
	adv, err := d.Recommend(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best.Freq != 0.6 {
		t.Fatalf("best design %s at freq %v; a downclocked design should win a network-bound workload",
			adv.Best.Label(), adv.Best.Freq)
	}
	if adv.Best.NormPerf < 0.6 {
		t.Fatalf("recommended design misses target: %v", adv.Best.NormPerf)
	}
}

func TestDesignerFrequencyLabels(t *testing.T) {
	c := Candidate{NB: 4, NW: 2, Freq: 0.6}
	if c.Label() != "4B,2W@0.6f" {
		t.Fatalf("label = %s", c.Label())
	}
	c = Candidate{NB: 8, Freq: 1}
	if c.Label() != "8B" {
		t.Fatalf("label = %s", c.Label())
	}
}
