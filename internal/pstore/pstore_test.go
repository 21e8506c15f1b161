package pstore

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/storage"
	"repro/internal/tpch"
)

const testSF = tpch.ScaleFactor(0.002) // 3000 orders, 12000 lineitems

// smallDefs returns the paper's §4.3 P-store layout: ORDERS segmented on
// O_CUSTKEY and LINEITEM on L_SHIPDATE, making the ORDERKEY join
// partition-incompatible on both sides (dual shuffle required).
func smallDefs(mat bool) (build, probe storage.TableDef) {
	build = storage.TableDef{Table: tpch.Orders, SF: testSF, Width: tpch.Q3ProjectedWidth,
		Placement: storage.HashSegmented, SegmentColumn: "O_CUSTKEY", Materialize: mat}
	probe = storage.TableDef{Table: tpch.Lineitem, SF: testSF, Width: tpch.Q3ProjectedWidth,
		Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE", Materialize: mat}
	return
}

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Homogeneous(n, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cfgSmall() Config {
	return Config{BatchRows: 512, WarmCache: true}
}

// --- Functional correctness: every method must equal the reference join ---

func TestDualShuffleMatchesReference(t *testing.T) {
	build, probe := smallDefs(true)
	wantRows, wantSum := ReferenceJoin(build, probe, 0.05, 0.05)
	if wantRows == 0 {
		t.Fatal("degenerate reference")
	}
	for _, n := range []int{1, 2, 4} {
		c := newCluster(t, n)
		res, _, err := RunJoin(c, cfgSmall(), JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputRows != wantRows || res.Checksum != wantSum {
			t.Fatalf("n=%d: got (%d,%d), want (%d,%d)", n, res.OutputRows, res.Checksum, wantRows, wantSum)
		}
	}
}

func TestBroadcastMatchesReference(t *testing.T) {
	build, probe := smallDefs(true)
	wantRows, wantSum := ReferenceJoin(build, probe, 0.01, 0.05)
	for _, n := range []int{2, 3, 4} {
		c := newCluster(t, n)
		res, _, err := RunJoin(c, cfgSmall(), JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.01, ProbeSel: 0.05, Method: Broadcast,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputRows != wantRows || res.Checksum != wantSum {
			t.Fatalf("n=%d: got (%d,%d), want (%d,%d)", n, res.OutputRows, res.Checksum, wantRows, wantSum)
		}
	}
}

func TestPrepartitionedMatchesReference(t *testing.T) {
	// Co-partition both tables on the join key (ORDERKEY): local joins
	// are then complete without any exchange, on any cluster size.
	build, probe := smallDefs(true)
	build.SegmentColumn = "O_ORDERKEY"
	probe.SegmentColumn = "L_ORDERKEY"
	wantRows, wantSum := ReferenceJoin(build, probe, 0.10, 0.10)
	for _, n := range []int{1, 3} {
		c := newCluster(t, n)
		res, _, err := RunJoin(c, cfgSmall(), JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.10, Method: Prepartitioned,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputRows != wantRows || res.Checksum != wantSum {
			t.Fatalf("n=%d: got (%d,%d), want (%d,%d)", n, res.OutputRows, res.Checksum, wantRows, wantSum)
		}
	}
}

func TestHeterogeneousExecutionMatchesReference(t *testing.T) {
	// 2 Beefy + 2 Wimpy, hash tables only on the Beefy nodes: the Wimpy
	// nodes scan/filter/ship (§5.2.2). Result must be identical.
	build, probe := smallDefs(true)
	wantRows, wantSum := ReferenceJoin(build, probe, 0.10, 0.10)
	c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunJoin(c, cfgSmall(), JoinSpec{
		Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.10,
		Method: DualShuffle, BuildNodes: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows != wantRows || res.Checksum != wantSum {
		t.Fatalf("hetero: got (%d,%d), want (%d,%d)", res.OutputRows, res.Checksum, wantRows, wantSum)
	}
}

func TestColdCacheSameResultsSlower(t *testing.T) {
	build, probe := smallDefs(true)
	warmCfg, coldCfg := cfgSmall(), cfgSmall()
	coldCfg.WarmCache = false
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}

	cWarm := newCluster(t, 2)
	warm, _, err := RunJoin(cWarm, warmCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cCold := newCluster(t, 2)
	cold, _, err := RunJoin(cCold, coldCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.OutputRows != cold.OutputRows || warm.Checksum != cold.Checksum {
		t.Fatal("cold-cache run changed results")
	}
	// L5630: disk (270 MB/s) is slower than CPU (4034 MB/s): cold >= warm.
	if cold.Seconds <= warm.Seconds {
		t.Fatalf("cold run (%.4fs) not slower than warm (%.4fs)", cold.Seconds, warm.Seconds)
	}
}

// --- Phantom mode: counts must match materialized mode exactly -----------

func TestPhantomRowAccountingMatchesMaterialized(t *testing.T) {
	matBuild, matProbe := smallDefs(true)
	phBuild, phProbe := smallDefs(false)
	spec := func(b, p storage.TableDef) JoinSpec {
		return JoinSpec{Build: b, Probe: p, BuildSel: 0.10, ProbeSel: 0.10, Method: DualShuffle}
	}
	cm := newCluster(t, 4)
	mat, _, err := RunJoin(cm, cfgSmall(), spec(matBuild, matProbe))
	if err != nil {
		t.Fatal(err)
	}
	cp := newCluster(t, 4)
	ph, _, err := RunJoin(cp, cfgSmall(), spec(phBuild, phProbe))
	if err != nil {
		t.Fatal(err)
	}
	// Build rows: phantom filter is deterministic-rounding of sel*rows;
	// materialized uses actual predicate hits. Both target sel*total.
	if math.Abs(float64(ph.BuildRowsTotal-mat.BuildRowsTotal))/float64(mat.BuildRowsTotal) > 0.15 {
		t.Fatalf("phantom build rows %d vs materialized %d", ph.BuildRowsTotal, mat.BuildRowsTotal)
	}
	// Output: phantom = qualifiedProbe * BuildSel ~= materialized join.
	if math.Abs(float64(ph.OutputRows-mat.OutputRows))/float64(mat.OutputRows) > 0.1 {
		t.Fatalf("phantom output %d vs materialized %d", ph.OutputRows, mat.OutputRows)
	}
}

func TestPhantomTimingIndependentOfMaterialization(t *testing.T) {
	// Timing must be driven by bytes, not by whether data is real.
	matBuild, matProbe := smallDefs(true)
	phBuild, phProbe := smallDefs(false)
	cm := newCluster(t, 2)
	mat, _, err := RunJoin(cm, cfgSmall(), JoinSpec{Build: matBuild, Probe: matProbe,
		BuildSel: 0.5, ProbeSel: 0.5, Method: DualShuffle})
	if err != nil {
		t.Fatal(err)
	}
	cp := newCluster(t, 2)
	ph, _, err := RunJoin(cp, cfgSmall(), JoinSpec{Build: phBuild, Probe: phProbe,
		BuildSel: 0.5, ProbeSel: 0.5, Method: DualShuffle})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ph.Seconds-mat.Seconds)/mat.Seconds > 0.05 {
		t.Fatalf("phantom time %.4f vs materialized %.4f (>5%%)", ph.Seconds, mat.Seconds)
	}
}

// --- Scaling and bottleneck behaviour ------------------------------------

func TestSubLinearSpeedupUnderNetworkBottleneck(t *testing.T) {
	// Paper-scale dual shuffle (phantom, SF 10 to keep it fast): halving
	// the cluster from 8 to 4 nodes must NOT halve performance (network-
	// bound shuffle => sub-linear speedup, §4.3.1: "halving the cluster
	// size only results in a 38% decrease in performance").
	build, probe := smallDefs(false)
	build.SF, probe.SF = 10, 10
	cfg := Config{BatchRows: 200_000, WarmCache: true}
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}

	c8 := newCluster(t, 8)
	r8, _, err := RunJoin(c8, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	c4 := newCluster(t, 4)
	r4, _, err := RunJoin(c4, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	perfRatio := r8.Seconds / r4.Seconds // normalized perf of 4N vs 8N
	if perfRatio <= 0.5 {
		t.Fatalf("4N relative performance %.3f, want > 0.5 (sub-linear speedup)", perfRatio)
	}
	if perfRatio >= 0.95 {
		t.Fatalf("4N relative performance %.3f suspiciously close to 8N", perfRatio)
	}
}

func TestSmallerClusterUsesLessEnergyWhenBottlenecked(t *testing.T) {
	build, probe := smallDefs(false)
	build.SF, probe.SF = 10, 10
	cfg := Config{BatchRows: 200_000, WarmCache: true}
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}

	c8 := newCluster(t, 8)
	_, j8, err := RunJoin(c8, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	c4 := newCluster(t, 4)
	_, j4, err := RunJoin(c4, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if j4 >= j8 {
		t.Fatalf("4N energy %.0f J >= 8N energy %.0f J; paper: smaller cluster saves energy under bottleneck", j4, j8)
	}
}

func TestBroadcastScalesWorseThanShuffle(t *testing.T) {
	// §4.3.2: "the broadcast join suffers a higher degree of non-linear
	// scalability than the dual shuffle join" — the broadcast phase does
	// not speed up with more nodes. Compare 8N/4N performance ratios.
	build, probe := smallDefs(false)
	build.SF, probe.SF = 10, 10
	cfg := Config{BatchRows: 200_000, WarmCache: true}
	ratio := func(m JoinMethod, bSel float64) float64 {
		c8 := newCluster(t, 8)
		r8, _, err := RunJoin(c8, cfg, JoinSpec{Build: build, Probe: probe, BuildSel: bSel, ProbeSel: 0.05, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		c4 := newCluster(t, 4)
		r4, _, err := RunJoin(c4, cfg, JoinSpec{Build: build, Probe: probe, BuildSel: bSel, ProbeSel: 0.05, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		return r8.Seconds / r4.Seconds // 4N normalized perf
	}
	shuffle := ratio(DualShuffle, 0.05)
	broadcast := ratio(Broadcast, 0.01)
	if broadcast <= shuffle {
		t.Fatalf("broadcast 4N perf %.3f <= shuffle %.3f; want broadcast to retain MORE relative performance", broadcast, shuffle)
	}
}

func TestConcurrencyIncreasesContention(t *testing.T) {
	// Figures 3(a-c): more concurrent joins stress the network further;
	// per-query time grows with concurrency.
	build, probe := smallDefs(false)
	build.SF, probe.SF = 2, 2
	cfg := Config{BatchRows: 100_000, WarmCache: true}
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}

	c1 := newCluster(t, 4)
	m1, _, _, err := RunConcurrent(c1, cfg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	c4 := newCluster(t, 4)
	m4, _, _, err := RunConcurrent(c4, cfg, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m4 <= m1*1.5 {
		t.Fatalf("4-way concurrent makespan %.3f vs single %.3f: expected significant contention", m4, m1)
	}
}

// A NaN selectivity fails every comparison, so a range check written as
// "s <= 0 || s > 1" let it through to a join that qualified no rows and
// matched its reference join on zero rows. Every bad spec must be
// refused, and a materialized join must not run it.
func TestValidateRejectsBadSpecs(t *testing.T) {
	build, probe := smallDefs(true)
	for name, s := range map[string]JoinSpec{
		"zero build selectivity":     {BuildSel: 0, ProbeSel: 0.5},
		"probe selectivity above 1":  {BuildSel: 0.5, ProbeSel: 1.5},
		"NaN build selectivity":      {BuildSel: math.NaN(), ProbeSel: 0.5},
		"NaN probe selectivity":      {BuildSel: 0.5, ProbeSel: math.NaN()},
		"build node out of range":    {BuildSel: 0.5, ProbeSel: 0.5, BuildNodes: []int{5}},
		"negative build selectivity": {BuildSel: -1, ProbeSel: 0.5},
	} {
		s.Build, s.Probe = build, probe
		if err := s.Validate(newCluster(t, 2)); err == nil {
			t.Errorf("%s: validated", name)
		}
		if res, _, err := RunJoin(newCluster(t, 2), cfgSmall(), s); err == nil {
			t.Errorf("%s: RunJoin answered %d rows and no error", name, res.OutputRows)
		}
	}
}

// A side that rounds to zero rows, or whose count wraps an int64, would
// print a 0 s, 0 J join as if it had run: Validate refuses it, naming
// the table and the SF.
func TestValidateRejectsEmptyAndOverflowedTables(t *testing.T) {
	for _, tc := range []struct {
		sf   tpch.ScaleFactor
		want string
	}{
		{1e-9, "ORDERS at SF 1e-09 has no rows"},
		{4e12, "LINEITEM at SF 4e+12 has more rows than an int64 holds"},
		{1e13, "ORDERS at SF 1e+13 has more rows than an int64 holds"},
	} {
		build, probe := smallDefs(false)
		build.SF, probe.SF = tc.sf, tc.sf
		s := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05}
		if err := s.Validate(newCluster(t, 2)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SF %v: err = %v, want %q", tc.sf, err, tc.want)
		}
	}
	build, probe := smallDefs(false)
	build.SF, probe.SF = 1000, 1000
	if err := (JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05}).Validate(newCluster(t, 2)); err != nil {
		t.Errorf("SF 1000 refused: %v", err)
	}
}

func TestPrepartitionedRequiresAllNodes(t *testing.T) {
	c := newCluster(t, 2)
	build, probe := smallDefs(false)
	e := New(c, cfgSmall())
	_, err := e.LaunchJoin("q", JoinSpec{Build: build, Probe: probe,
		BuildSel: 0.5, ProbeSel: 0.5, Method: Prepartitioned, BuildNodes: []int{0}})
	if err == nil {
		t.Fatal("prepartitioned with partial build nodes accepted")
	}
}

func TestJoinMethodString(t *testing.T) {
	if DualShuffle.String() != "dual-shuffle" || Broadcast.String() != "broadcast" ||
		Prepartitioned.String() != "prepartitioned" {
		t.Error("JoinMethod.String broken")
	}
}

func TestRunConcurrentReportsPerQuery(t *testing.T) {
	build, probe := smallDefs(false)
	cfg := cfgSmall()
	c := newCluster(t, 2)
	makespan, per, joules, err := RunConcurrent(c, cfg,
		JoinSpec{Build: build, Probe: probe, BuildSel: 0.1, ProbeSel: 0.1, Method: DualShuffle}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("per-query times: %v", per)
	}
	for _, s := range per {
		if s <= 0 || s > makespan {
			t.Fatalf("per-query %v out of range (makespan %v)", s, makespan)
		}
	}
	if joules <= 0 {
		t.Fatal("no energy metered")
	}
}
