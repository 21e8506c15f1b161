package pstore

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
)

// TestBroadcastHeterogeneousMatchesReference exercises the broadcast
// path with a Beefy-only build-node subset: non-owner (Wimpy) nodes ship
// their probe batches round-robin to the owners, who all hold the full
// hash table.
func TestBroadcastHeterogeneousMatchesReference(t *testing.T) {
	build, probe := smallDefs(true)
	wantRows, wantSum := ReferenceJoin(build, probe, 0.01, 0.10)
	c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunJoin(c, cfgSmall(), JoinSpec{
		Build: build, Probe: probe, BuildSel: 0.01, ProbeSel: 0.10,
		Method: Broadcast, BuildNodes: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows != wantRows || res.Checksum != wantSum {
		t.Fatalf("hetero broadcast (%d,%d) != reference (%d,%d)",
			res.OutputRows, res.Checksum, wantRows, wantSum)
	}
}

// TestEngineDeterminism: identical runs produce bit-identical virtual
// times and energies — the bedrock of every reported number.
func TestEngineDeterminism(t *testing.T) {
	run := func() (float64, float64, int64) {
		c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
		if err != nil {
			t.Fatal(err)
		}
		build, probe := smallDefs(false)
		build.SF, probe.SF = 5, 5
		res, j, err := RunJoin(c, Config{WarmCache: true, BatchRows: 100_000}, JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.25,
			Method: DualShuffle, BuildNodes: []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds, j, res.OutputRows
	}
	s1, j1, r1 := run()
	s2, j2, r2 := run()
	if s1 != s2 || j1 != j2 || r1 != r2 {
		t.Fatalf("nondeterministic engine: (%v,%v,%v) vs (%v,%v,%v)", s1, j1, r1, s2, j2, r2)
	}
}

// TestHashTableSizeAccounting: MaxHashTableBytes must reflect the
// qualified build rows' share per owner.
func TestHashTableSizeAccounting(t *testing.T) {
	c := newCluster(t, 4)
	build, probe := smallDefs(false)
	build.SF, probe.SF = 10, 10
	res, _, err := RunJoin(c, Config{WarmCache: true, BatchRows: 200_000}, JoinSpec{
		Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.01, Method: DualShuffle,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := build.TotalBytes() * 0.10
	perNode := wantTotal / 4
	if res.MaxHashTableBytes < perNode*0.9 || res.MaxHashTableBytes > perNode*1.1 {
		t.Fatalf("max hash table %.0f B, want ~%.0f", res.MaxHashTableBytes, perNode)
	}
	if rows := float64(res.BuildRowsTotal); rows < float64(build.TotalRows())*0.095 ||
		rows > float64(build.TotalRows())*0.105 {
		t.Fatalf("build rows %v, want ~10%% of %v", res.BuildRowsTotal, build.TotalRows())
	}
}

// TestConcurrentMixedMethods: different queries with different plans can
// share the cluster.
func TestConcurrentMixedMethods(t *testing.T) {
	c := newCluster(t, 4)
	e := New(c, Config{WarmCache: true, BatchRows: 100_000})
	build, probe := smallDefs(false)
	build.SF, probe.SF = 2, 2
	h1, err := e.LaunchJoin("shuffle", JoinSpec{Build: build, Probe: probe,
		BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.LaunchJoin("broadcast", JoinSpec{Build: build, Probe: probe,
		BuildSel: 0.01, ProbeSel: 0.05, Method: Broadcast})
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if !h1.Done.Fired() || !h2.Done.Fired() {
		t.Fatal("concurrent mixed-method queries did not complete")
	}
	if h1.Err != nil || h2.Err != nil {
		t.Fatal(h1.Err, h2.Err)
	}
}
