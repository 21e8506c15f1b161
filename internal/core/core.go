// Package core is the public heart of the library: an energy-efficient
// database cluster designer implementing the paper's contribution — the
// design methodology distilled in Section 6 and Figure 12:
//
//  1. classify the workload's scalability on the candidate hardware
//     (Figure 12(a) vs (b)): a highly scalable query has flat energy
//     across cluster sizes, so the best design uses ALL nodes;
//  2. for bottlenecked queries, reduce the cluster to the fewest nodes
//     that still meet the performance target (Figure 12(b));
//  3. consider heterogeneous Beefy/Wimpy mixes, which can beat the best
//     homogeneous design on both energy AND performance (Figure 12(c)).
//
// The designer explores the space with the analytical model
// (internal/model); candidates can also be evaluated empirically with the
// P-store engine via the experiments package.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/power"
)

// Scalability classifies a workload's speedup behaviour on a cluster.
type Scalability int

const (
	// Scalable marks near-ideal speedup (Figure 12(a)): energy is flat in
	// cluster size, so provision as many nodes as possible.
	Scalable Scalability = iota
	// Bottlenecked marks sub-linear speedup (Figure 12(b,c)): smaller or
	// heterogeneous designs save energy.
	Bottlenecked
)

func (s Scalability) String() string {
	if s == Scalable {
		return "scalable"
	}
	return "bottlenecked"
}

// Candidate is one evaluated cluster design.
type Candidate struct {
	NB, NW int
	// Freq is the CPU frequency fraction (1.0 = nominal; the DVFS
	// dimension of the design space).
	Freq    float64
	Seconds float64
	Joules  float64
	// NormPerf/NormEnergy are relative to the all-Beefy full-size design.
	NormPerf   float64
	NormEnergy float64
	// Heterogeneous execution was required (Wimpy nodes scan/filter only).
	Heterogeneous bool
}

// Label renders the paper's design naming: "8B,0W", "2B,6W", with a
// "@0.6f" suffix for downclocked designs.
func (c Candidate) Label() string {
	base := fmt.Sprintf("%dB", c.NB)
	if c.NW > 0 {
		base = fmt.Sprintf("%dB,%dW", c.NB, c.NW)
	}
	if c.Freq != 0 && c.Freq != 1 {
		base += fmt.Sprintf("@%.1ff", c.Freq)
	}
	return base
}

// Point converts the candidate for metrics rendering.
func (c Candidate) Point() power.Point {
	return power.Point{Label: c.Label(), Seconds: c.Seconds, Joules: c.Joules,
		NormPerf: c.NormPerf, NormEnerg: c.NormEnergy}
}

// Advice is the designer's recommendation.
type Advice struct {
	Class Scalability
	// Best is the recommended design.
	Best Candidate
	// BestHomogeneous is the best all-Beefy design meeting the target
	// (for the Figure 12(c) comparison).
	BestHomogeneous Candidate
	// Principle is the applicable design principle, in the paper's words.
	Principle string
	// Candidates lists every evaluated design, best-energy first among
	// target-meeting designs.
	Candidates []Candidate
}

// Designer explores cluster designs for one hash-join workload described
// by model parameters. NB/NW in Base are ignored; MaxNodes fixes the
// cluster size for mix exploration and the upper bound for size
// exploration.
type Designer struct {
	Base     model.Params
	MaxNodes int
	// MinNodes bounds the smallest homogeneous cluster considered
	// (default 1).
	MinNodes int
	// Frequencies adds DVFS design points: every size and mix is also
	// evaluated at these CPU frequency fractions (nominal 1.0 is always
	// included). StaticShare (default 0.5) splits node power into a
	// frequency-independent part and a cubic dynamic part.
	Frequencies []float64
	StaticShare float64
}

// Explore evaluates all homogeneous sizes in [MinNodes, MaxNodes] and all
// Beefy/Wimpy mixes of MaxNodes total nodes, normalized against the
// all-Beefy MaxNodes design. Bad workload parameters are an input error;
// "infeasible" means only that the reference design's hash table does
// not fit.
func (d Designer) Explore() ([]Candidate, error) {
	if d.MaxNodes <= 0 {
		return nil, fmt.Errorf("core: MaxNodes must be positive")
	}
	base := d.Base
	base.NB, base.NW = d.MaxNodes, 0
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	min := d.MinNodes
	if min <= 0 {
		min = 1
	}
	static := d.StaticShare
	if static == 0 {
		static = 0.5
	}
	evalOne := func(nb, nw int, freq float64) (Candidate, error) {
		p := d.Base
		p.NB, p.NW = nb, nw
		if freq != 1 {
			p = p.WithFrequency(freq, static)
		}
		res, err := p.HashJoin()
		if err != nil {
			return Candidate{}, err
		}
		return Candidate{NB: nb, NW: nw, Freq: freq,
			Seconds: res.Seconds(), Joules: res.Joules(),
			Heterogeneous: res.Heterogeneous}, nil
	}
	ref, err := evalOne(d.MaxNodes, 0, 1)
	if err != nil {
		return nil, fmt.Errorf("core: reference design infeasible: %w", err)
	}
	freqs := append([]float64{1}, d.Frequencies...)
	var out []Candidate
	seen := map[[3]int]bool{}
	add := func(nb, nw int) {
		for _, fr := range freqs {
			if fr <= 0 || fr > 1 {
				continue
			}
			k := [3]int{nb, nw, int(fr * 1000)}
			if seen[k] {
				continue
			}
			seen[k] = true
			c, err := evalOne(nb, nw, fr)
			if err != nil {
				continue // infeasible mixes (hash table does not fit) are skipped
			}
			c.NormPerf = ref.Seconds / c.Seconds
			c.NormEnergy = c.Joules / ref.Joules
			out = append(out, c)
		}
	}
	for n := d.MaxNodes; n >= min; n-- {
		add(n, 0)
	}
	for nb := d.MaxNodes - 1; nb >= 0; nb-- {
		add(nb, d.MaxNodes-nb)
	}
	return out, nil
}

// Classify determines workload scalability with the paper's fundamental
// bottleneck test (§4.1): the workload is Scalable (Figure 12(a)) only if
// every phase of the join is scan-bound on the full-size cluster — i.e.
// no phase saturates the network. A network-bound phase means sub-linear
// speedup, which is exactly when smaller or heterogeneous designs save
// energy (Figure 12(b,c)).
func (d Designer) Classify() (Scalability, error) {
	p := d.Base
	p.NB, p.NW = d.MaxNodes, 0
	if err := p.Validate(); err != nil {
		return Bottlenecked, err
	}
	if p.PhaseNetworkBound(p.Sbld) || p.PhaseNetworkBound(p.Sprb) {
		return Bottlenecked, nil
	}
	return Scalable, nil
}

// Recommend picks the best design for a relative performance target
// (e.g. 0.6 = accept up to 40% slower than the all-Beefy full cluster),
// applying the Figure 12 principles.
func (d Designer) Recommend(perfTarget float64) (Advice, error) {
	if !(perfTarget > 0 && perfTarget <= 1) {
		return Advice{}, fmt.Errorf("core: performance target must be in (0,1], got %v", perfTarget)
	}
	cands, err := d.Explore()
	if err != nil {
		return Advice{}, err
	}
	class, err := d.Classify()
	if err != nil {
		return Advice{}, err
	}
	adv := Advice{Class: class, Candidates: cands}

	if class == Scalable {
		// Figure 12(a): the largest cluster is also (near-)most efficient.
		for _, c := range cands {
			if c.NB == d.MaxNodes && c.NW == 0 && c.Freq == 1 {
				adv.Best = c
				adv.BestHomogeneous = c
			}
		}
		adv.Principle = "Highly scalable workload: use all available nodes — " +
			"the highest performing design point is also the most energy efficient (Fig 12(a))."
		return adv, nil
	}

	meets := func(c Candidate) bool { return c.NormPerf >= perfTarget }
	bestEnergy := Candidate{Joules: math.Inf(1)}
	bestHomog := Candidate{Joules: math.Inf(1)}
	for _, c := range cands {
		if !meets(c) {
			continue
		}
		if c.Joules < bestEnergy.Joules {
			bestEnergy = c
		}
		if c.NW == 0 && c.Joules < bestHomog.Joules {
			bestHomog = c
		}
	}
	if math.IsInf(bestEnergy.Joules, 1) {
		return Advice{}, fmt.Errorf("core: no design meets performance target %.2f", perfTarget)
	}
	adv.Best = bestEnergy
	adv.BestHomogeneous = bestHomog
	if bestEnergy.NW > 0 {
		adv.Principle = "Bottlenecked workload: a heterogeneous Beefy/Wimpy design beats the best " +
			"homogeneous design on energy at the same performance target (Fig 12(c))."
	} else {
		adv.Principle = "Bottlenecked workload: use the fewest nodes that still meet the " +
			"performance target (Fig 12(b))."
	}
	// Order candidates: target-meeting by energy, then the rest by perf.
	sort.SliceStable(adv.Candidates, func(i, j int) bool {
		a, b := adv.Candidates[i], adv.Candidates[j]
		am, bm := meets(a), meets(b)
		if am != bm {
			return am
		}
		if am {
			return a.Joules < b.Joules
		}
		return a.NormPerf > b.NormPerf
	})
	return adv, nil
}
