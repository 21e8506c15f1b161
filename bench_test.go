// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation, one benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports, besides the usual ns/op, custom metrics
// extracted from the experiment: the headline normalized-performance /
// normalized-energy values the corresponding figure plots, so a bench
// run doubles as a numeric regression check of the reproduction.
package repro

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/pstore"
	"repro/internal/runner"
)

func benchExperiment(b *testing.B, id string, metrics func(b *testing.B, rep experiments.Result)) {
	b.Helper()
	exps, err := runner.Select(id)
	if err != nil {
		b.Fatal(err)
	}
	var rep experiments.Result
	for i := 0; i < b.N; i++ {
		results, err := runner.Run(exps, runner.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep = results[0].Result
	}
	if metrics != nil {
		metrics(b, rep)
	}
}

// benchSuite runs the full 20-experiment registry through the runner with
// the given worker and intra-experiment shard counts and reports the sum
// of per-experiment wall times divided by the elapsed wall time of the
// suite. Under contention the per-experiment walls are themselves
// inflated, so this metric is an optimistic indicator only; the
// authoritative end-to-end speedup is the ns/op ratio of
// BenchmarkSuiteSerial to BenchmarkSuiteParallel/Sharded.
func benchSuite(b *testing.B, workers, shards int) {
	b.Helper()
	var speedup float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		results, err := runner.Run(experiments.Registry(), runner.Options{
			Workers: workers, Exp: experiments.Options{Shards: shards}})
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		var sum time.Duration
		for _, r := range results {
			sum += r.Wall
		}
		speedup = float64(sum) / float64(elapsed)
	}
	b.ReportMetric(speedup, "aggregate-speedup")
}

// BenchmarkSuiteSerial is the fully serial baseline for the full
// evaluation (one worker, no intra-experiment sharding): its ns/op is
// the raw kernel + data-path speed; the benchmark/ module's suite_sf100
// workload times the same serial run as a user types it.
// BenchmarkSuiteParallel fans whole experiments out over GOMAXPROCS
// workers; BenchmarkSuiteSharded keeps one experiment at a time but
// shards each experiment's simulation grid over GOMAXPROCS workers (the
// cmd/repro -sf 1000 configuration). Results are byte-identical across
// all three — only wall time differs.
func BenchmarkSuiteSerial(b *testing.B)   { benchSuite(b, 1, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0, 1) }
func BenchmarkSuiteSharded(b *testing.B)  { benchSuite(b, 1, 0) }

// BenchmarkSuiteCachedParallel additionally shares a memoizing join cache
// across the suite (the cmd/repro default): identical engine joins in
// fig3/fig4/fig5, fig6, fig7a/fig8 and fig7b/fig9 simulate once. The
// reported hit rate is the fraction of join requests served from memory.
func BenchmarkSuiteCachedParallel(b *testing.B) {
	var hitRate float64
	for i := 0; i < b.N; i++ {
		cache := pstore.NewCache(nil)
		_, err := runner.Run(experiments.Registry(),
			runner.Options{Exp: experiments.Options{Joins: cache}})
		if err != nil {
			b.Fatal(err)
		}
		s := cache.Stats()
		hitRate = float64(s.Hits) / float64(s.Requests())
	}
	b.ReportMetric(hitRate, "join-cache-hit-rate")
}

// reportPair publishes one paper-vs-measured pair as benchmark metrics.
func reportPair(b *testing.B, rep experiments.Result, metric, unit string) {
	for _, p := range rep.Pairs {
		if p.Metric == metric {
			b.ReportMetric(p.Measured, unit)
			return
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "SysPower exponent B", "fitted-exponent")
	})
}

func BenchmarkFig1a(b *testing.B) {
	benchExperiment(b, "fig1a", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "8N normalized performance", "perf-8N")
		reportPair(b, rep, "8N normalized energy", "energy-8N")
	})
}

func BenchmarkFig1b(b *testing.B) {
	benchExperiment(b, "fig1b", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "designs below EDP line (of 6 mixes)", "below-EDP")
	})
}

func BenchmarkFig2a(b *testing.B) {
	benchExperiment(b, "fig2a", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "8N normalized energy", "energy-8N")
	})
}

func BenchmarkFig2b(b *testing.B) {
	benchExperiment(b, "fig2b", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "8N repartition time fraction", "net-fraction")
	})
}

func BenchmarkHadoopDB(b *testing.B) {
	benchExperiment(b, "hadoopdb", nil)
}

func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "1q: 4N energy", "energy-4N-1q")
		reportPair(b, rep, "4q: 4N energy", "energy-4N-4q")
	})
}

func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "1q: 4N performance", "perf-4N")
		reportPair(b, rep, "1q: 4N energy", "energy-4N")
	})
}

func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "shuffle: half-cluster energy", "shuffle-half")
		reportPair(b, rep, "broadcast: half-cluster energy", "broadcast-half")
	})
}

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", nil)
}

func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "Laptop B (i7 620m) energy (J)", "laptopB-J")
	})
}

func BenchmarkFig7a(b *testing.B) {
	benchExperiment(b, "fig7a", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "BW energy saving at L100%", "BW-saving-L100")
	})
}

func BenchmarkFig7b(b *testing.B) {
	benchExperiment(b, "fig7b", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "BW energy saving at L100%", "BW-saving-L100")
	})
}

func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "max validation error (paper bound)", "max-rel-err")
	})
}

func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "max validation error (paper bound)", "max-rel-err")
	})
}

func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, "table3", nil)
}

func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10a", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "0B,8W normalized energy", "allwimpy-energy")
	})
	benchExperiment(b, "fig10b", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "2B,6W normalized performance", "2B6W-perf")
	})
}

func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", func(b *testing.B, rep experiments.Result) {
		reportPair(b, rep, "knee index at L2% (6=2B,6W)", "knee-L2")
	})
}

func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", nil)
}
