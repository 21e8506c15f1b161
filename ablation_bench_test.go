package repro

// Ablation benchmarks for the simulator's load-bearing design choices
// (warm-cache regime, batch granularity, switch congestion, the
// JoinWork constant). Each reports the quantity the ablation is about as
// a custom metric, so `go test -bench=Ablation` doubles as a sensitivity
// report.

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dbms"
	"repro/internal/hw"
	"repro/internal/par"
	"repro/internal/pstore"
	"repro/internal/workload"
)

// joinSeconds runs one independent join on a fresh homogeneous cluster;
// the multi-configuration ablations below fan these out with par.Map
// (each run owns its private engine, so results are unchanged).
func joinSeconds(n int, hwSpec hw.Spec, cfg pstore.Config, spec pstore.JoinSpec) (float64, error) {
	c, err := cluster.New(cluster.Homogeneous(n, hwSpec))
	if err != nil {
		return 0, err
	}
	r, _, err := pstore.RunJoin(c, cfg, spec)
	return r.Seconds, err
}

// BenchmarkAblationWarmVsCold compares the §5.3.1 warm-cache regime
// (CPU-rate scans) against cold disk-rate scans for the same join.
func BenchmarkAblationWarmVsCold(b *testing.B) {
	spec := workload.Q3Join(10, 0.05, 0.05, pstore.DualShuffle)
	var warmS, coldS float64
	for i := 0; i < b.N; i++ {
		secs, err := par.Map(0, []bool{true, false}, func(_ int, warm bool) (float64, error) {
			return joinSeconds(4, hw.BeefyL5630(), pstore.Config{WarmCache: warm, BatchRows: 200_000}, spec)
		})
		if err != nil {
			b.Fatal(err)
		}
		warmS, coldS = secs[0], secs[1]
	}
	b.ReportMetric(coldS/warmS, "cold/warm-slowdown")
}

// BenchmarkAblationBatchSize checks simulation fidelity: the virtual
// response time must be (nearly) invariant to the exchange batch size,
// which only controls event granularity.
func BenchmarkAblationBatchSize(b *testing.B) {
	// SF 40 keeps the query long enough that per-batch store-and-forward
	// latency (the one real granularity effect) stays in the noise.
	spec := workload.Q3Join(40, 0.05, 0.05, pstore.DualShuffle)
	var dev float64
	for i := 0; i < b.N; i++ {
		secs, err := par.Map(0, []int{50_000, 200_000, 800_000}, func(_ int, rows int) (float64, error) {
			return joinSeconds(4, hw.ClusterV(), pstore.Config{WarmCache: true, BatchRows: rows}, spec)
		})
		if err != nil {
			b.Fatal(err)
		}
		min, max := secs[0], secs[0]
		for _, s := range secs {
			min, max = math.Min(min, s), math.Max(max, s)
		}
		dev = (max - min) / min
	}
	b.ReportMetric(dev, "batch-size-deviation")
	if dev > 0.05 {
		b.Fatalf("batch size changes virtual time by %.1f%%; fidelity bug", dev*100)
	}
}

// BenchmarkAblationCongestion shows why the dbms simulator needs switch
// interference: with ideal per-port scaling (exponent 0) the Q12 curve
// cannot reproduce the paper's 8N performance ratio.
func BenchmarkAblationCongestion(b *testing.B) {
	var ideal, calibrated float64
	for i := 0; i < b.N; i++ {
		perf8 := func(congestion float64) float64 {
			q := dbms.VerticaQ12()
			for j := range q.Stages {
				if q.Stages[j].Kind == dbms.Repartition {
					q.Stages[j].Congestion = congestion
				}
			}
			res, err := dbms.SizeSweep(q, []int{8, 16}, hw.ClusterV())
			if err != nil {
				b.Fatal(err)
			}
			return res[16].Seconds / res[8].Seconds
		}
		ideal = perf8(0)
		calibrated = perf8(dbms.Q12Congestion)
	}
	b.ReportMetric(ideal, "perf8N-ideal-switch")
	b.ReportMetric(calibrated, "perf8N-calibrated")
}

// BenchmarkAblationJoinWork sweeps the engine's JoinWork CPU constant to
// show results are robust to the one free parameter of the engine.
func BenchmarkAblationJoinWork(b *testing.B) {
	spec := workload.Q3Join(10, 0.05, 0.05, pstore.DualShuffle)
	var spread float64
	for i := 0; i < b.N; i++ {
		secs, err := par.Map(0, []float64{0.5, 1.0, 2.0}, func(_ int, jw float64) (float64, error) {
			return joinSeconds(8, hw.ClusterV(), pstore.Config{WarmCache: true, BatchRows: 200_000, JoinWork: jw}, spec)
		})
		if err != nil {
			b.Fatal(err)
		}
		spread = (secs[2] - secs[0]) / secs[0]
	}
	b.ReportMetric(spread, "joinwork-0.5..2-spread")
}
