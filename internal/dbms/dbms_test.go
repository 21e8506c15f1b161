package dbms

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/power"
)

func sweep(t *testing.T, q Query) map[int]Result {
	t.Helper()
	out, err := SizeSweep(q, []int{8, 10, 12, 14, 16}, hw.ClusterV())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func norm(res map[int]Result, n int) (perf, energy float64) {
	ref := res[16]
	return ref.Seconds / res[n].Seconds, res[n].Joules / ref.Joules
}

func TestQ12CalibrationMatchesPaper(t *testing.T) {
	// Section 3.1: "Query 12 spends 48% of the query time network
	// bottlenecked during repartitioning with the eight node cluster."
	r, err := Run(VerticaQ12(), 8, hw.ClusterV())
	if err != nil {
		t.Fatal(err)
	}
	frac := r.NetworkFraction(VerticaQ12())
	if math.Abs(frac-0.48) > 0.03 {
		t.Fatalf("Q12 network fraction at 8N = %.3f, want ~0.48", frac)
	}
}

func TestQ12Figure1aShape(t *testing.T) {
	// Figure 1(a): going 16N -> 8N "reduces the performance by only 36%"
	// (perf ratio ~0.64) while energy drops (~0.82); the 10N point pays a
	// 24% performance penalty for a 16% energy saving.
	res := sweep(t, VerticaQ12())
	p8, e8 := norm(res, 8)
	if math.Abs(p8-0.64) > 0.05 {
		t.Fatalf("8N normalized performance = %.3f, want ~0.64", p8)
	}
	if e8 >= 0.9 || e8 <= 0.7 {
		t.Fatalf("8N normalized energy = %.3f, want ~0.78-0.85", e8)
	}
	p10, e10 := norm(res, 10)
	if math.Abs(p10-0.76) > 0.05 {
		t.Fatalf("10N normalized performance = %.3f, want ~0.76", p10)
	}
	if math.Abs(e10-0.84) > 0.05 {
		t.Fatalf("10N normalized energy = %.3f, want ~0.84", e10)
	}
}

func TestQ12PointsAboveEDPLine(t *testing.T) {
	// Figure 1(a): "all the actual data/design points are above the EDP
	// curve" — energy savings are proportionally smaller than the
	// performance loss.
	res := sweep(t, VerticaQ12())
	for _, n := range []int{8, 10, 12, 14} {
		perf, energy := norm(res, n)
		pt := power.Point{NormPerf: perf, NormEnerg: energy}
		if pt.NormEDP() <= 1 {
			t.Fatalf("%dN normalized EDP = %.3f, want > 1 (above the line)", n, pt.NormEDP())
		}
	}
}

func TestQ1IdealSpeedupFlatEnergy(t *testing.T) {
	// Figure 2(a): Q1 scales linearly; energy is flat across sizes.
	res := sweep(t, VerticaQ1())
	p8, e8 := norm(res, 8)
	if math.Abs(p8-0.5) > 0.02 {
		t.Fatalf("Q1 8N performance = %.3f, want ~0.5 (ideal speedup)", p8)
	}
	for _, n := range []int{8, 10, 12, 14} {
		_, e := norm(res, n)
		if math.Abs(e-1.0) > 0.05 {
			t.Fatalf("Q1 %dN energy = %.3f, want ~1.0 (flat)", n, e)
		}
	}
	_ = e8
}

func TestQ21NearIdealSpeedup(t *testing.T) {
	// Figure 2(b): Q21 repartitions but only 5.5% of its time, so it
	// behaves almost like Q1.
	r8, err := Run(VerticaQ21(), 8, hw.ClusterV())
	if err != nil {
		t.Fatal(err)
	}
	frac := r8.NetworkFraction(VerticaQ21())
	if math.Abs(frac-0.055) > 0.01 {
		t.Fatalf("Q21 network fraction at 8N = %.4f, want ~0.055", frac)
	}
	res := sweep(t, VerticaQ21())
	p8, e8 := norm(res, 8)
	if p8 < 0.48 || p8 > 0.6 {
		t.Fatalf("Q21 8N performance = %.3f, want near 0.5", p8)
	}
	if math.Abs(e8-1.0) > 0.08 {
		t.Fatalf("Q21 8N energy = %.3f, want ~1.0", e8)
	}
}

func TestHadoopDBBestPerformerNotMostEfficient(t *testing.T) {
	// Section 3.2: with Hadoop's fixed coordination overhead, the fastest
	// cluster (16N) consumes more energy than a smaller one.
	res := sweep(t, HadoopDBQ1())
	if res[16].Seconds >= res[8].Seconds {
		t.Fatal("16N not fastest")
	}
	minN, minJ := 0, math.Inf(1)
	for n, r := range res {
		if r.Joules < minJ {
			minN, minJ = n, r.Joules
		}
	}
	if minN == 16 {
		t.Fatal("16N is both fastest and most efficient; the Hadoop bottleneck should prevent that")
	}
}

func TestLocalStageLinear(t *testing.T) {
	st := Stage{Kind: Local, BytesMB: 80592} // 2 s at 8 nodes on cluster-V
	t8, busy := st.Duration(8, hw.ClusterV())
	t16, _ := st.Duration(16, hw.ClusterV())
	if math.Abs(t8/t16-2) > 1e-9 {
		t.Fatalf("local stage speedup %.3f, want exactly 2", t8/t16)
	}
	if busy != 1.0 {
		t.Fatalf("local stage CPU busy = %v, want 1", busy)
	}
}

func TestFixedStage(t *testing.T) {
	st := Stage{Kind: Fixed, Seconds: 45}
	s, busy := st.Duration(4, hw.ClusterV())
	if s != 45 || busy != 0 {
		t.Fatalf("fixed stage = (%v, %v)", s, busy)
	}
}

func TestRunRejectsZeroNodes(t *testing.T) {
	if _, err := Run(VerticaQ1(), 0, hw.ClusterV()); err == nil {
		t.Fatal("0 nodes accepted")
	}
}

func TestEnergyEqualsMeterIntegral(t *testing.T) {
	// One local stage of exactly 2 s at util 1.0 on 4 nodes:
	// energy = 4 * 2 * f(1.0).
	st := Query{Stages: []Stage{{Kind: Local, BytesMB: 4 * 2 * 5037}}}
	r, err := Run(st, 4, hw.ClusterV())
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 2 * hw.ClusterV().Power.Watts(1.0)
	if math.Abs(r.Joules-want)/want > 0.01 {
		t.Fatalf("energy = %.1f, want %.1f", r.Joules, want)
	}
}
