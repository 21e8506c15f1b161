package sched

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/workload"
)

func mkCluster() (*cluster.Cluster, error) {
	return cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
}

func testSpec() pstore.JoinSpec {
	return workload.Q3Join(10, 0.05, 0.05, pstore.DualShuffle)
}

func cfg() pstore.Config {
	return pstore.Config{WarmCache: true, BatchRows: 200_000}
}

func TestPeriodicWorkload(t *testing.T) {
	wl := Periodic(testSpec(), 5, 30)
	if len(wl) != 5 || wl[4].Arrival != 120 {
		t.Fatalf("periodic workload wrong: %+v", wl)
	}
	if wl.Span() != 120 {
		t.Fatalf("span = %v", wl.Span())
	}
}

func TestImmediateRunsAtArrival(t *testing.T) {
	c, err := mkCluster()
	if err != nil {
		t.Fatal(err)
	}
	wl := Periodic(testSpec(), 3, 50)
	res, err := Run(c, cfg(), wl, Immediate{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range res.Queries {
		if q.Launched != wl[i].Arrival {
			t.Fatalf("query %d launched at %v, arrival %v", i, q.Launched, wl[i].Arrival)
		}
		if q.Finished <= q.Launched {
			t.Fatalf("query %d finished before launch", i)
		}
	}
	if res.Makespan <= 100 {
		t.Fatalf("makespan %v, want > last arrival", res.Makespan)
	}
}

func TestBatchedReleaseBoundaries(t *testing.T) {
	b := Batched{Window: 60}
	cases := map[float64]float64{0: 0, 1: 60, 59.9: 60, 60: 60, 61: 120}
	for arr, want := range cases {
		if got := b.ReleaseAt(arr); got != want {
			t.Fatalf("ReleaseAt(%v) = %v, want %v", arr, got, want)
		}
	}
	if (Batched{}).ReleaseAt(17) != 17 {
		t.Fatal("zero window must behave as immediate")
	}
}

func TestAllQueriesComplete(t *testing.T) {
	c, err := mkCluster()
	if err != nil {
		t.Fatal(err)
	}
	wl := Periodic(testSpec(), 6, 10)
	res, err := Run(c, cfg(), wl, Batched{Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 6 {
		t.Fatalf("%d results, want 6", len(res.Queries))
	}
	for _, q := range res.Queries {
		if q.Response() < 0 || q.Execution() <= 0 {
			t.Fatalf("bad query result: %+v", q)
		}
	}
}

func TestBatchingTradesLatencyForEnergy(t *testing.T) {
	// The §2 delayed-execution trade. Batching alone barely moves energy
	// (each query already saturates the cluster while it runs), but it
	// consolidates idle time into long gaps a power-managed cluster can
	// sleep through; with a 10 s wake transition, the batched schedule
	// saves real energy while mean response time grows.
	wl := Periodic(testSpec(), 8, 15)
	imm, bat, err := Compare(mkCluster, cfg(), wl, 60)
	if err != nil {
		t.Fatal(err)
	}
	horizon := math.Max(imm.Makespan, bat.Makespan)
	eImm, eBat := imm.EnergyOver(horizon), bat.EnergyOver(horizon)
	if eBat > eImm*1.01 {
		t.Fatalf("batched energy %.0f J worse than immediate %.0f J", eBat, eImm)
	}
	sleepW := imm.IdleWatts * 0.1
	sImm := imm.EnergyWithSleep(horizon, sleepW, 10)
	sBat := bat.EnergyWithSleep(horizon, sleepW, 10)
	if sBat >= sImm*0.95 {
		t.Fatalf("sleep-enabled: batched %.0f J vs immediate %.0f J; want >5%% savings", sBat, sImm)
	}
	if bat.MeanResp <= imm.MeanResp {
		t.Fatalf("batched mean response %.1f s <= immediate %.1f s; latency must be the price", bat.MeanResp, imm.MeanResp)
	}
}

func TestGapsCoverIdleTime(t *testing.T) {
	c, err := mkCluster()
	if err != nil {
		t.Fatal(err)
	}
	wl := Periodic(testSpec(), 3, 50)
	res, err := Run(c, cfg(), wl, Immediate{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := res.Makespan + 20
	gaps := res.Gaps(horizon)
	var gapTime, busyTime float64
	for _, g := range gaps {
		if g[1] <= g[0] {
			t.Fatalf("degenerate gap %v", g)
		}
		gapTime += g[1] - g[0]
	}
	for _, q := range res.Queries {
		busyTime += q.Execution()
	}
	// Queries here do not overlap (50 s apart, sub-second runtime):
	// gaps + busy must tile the horizon exactly.
	if math.Abs(gapTime+busyTime-horizon) > 1e-6 {
		t.Fatalf("gaps (%.2f) + busy (%.2f) != horizon (%.2f)", gapTime, busyTime, horizon)
	}
}

func TestEnergyWithSleepBounds(t *testing.T) {
	c, err := mkCluster()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, cfg(), Periodic(testSpec(), 2, 100), Immediate{})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Makespan + 50
	base := res.EnergyOver(h)
	// Sleeping at idle watts saves nothing; sleeping at 0 W with no
	// transition saves exactly idleWatts * gap time.
	if res.EnergyWithSleep(h, res.IdleWatts, 0) != base {
		t.Fatal("sleep at idle power changed energy")
	}
	var gapTime float64
	for _, g := range res.Gaps(h) {
		gapTime += g[1] - g[0]
	}
	want := base - res.IdleWatts*gapTime
	if math.Abs(res.EnergyWithSleep(h, 0, 0)-want) > 1e-6 {
		t.Fatalf("free sleep = %.2f, want %.2f", res.EnergyWithSleep(h, 0, 0), want)
	}
	// Savings are monotone in wake transition cost.
	if res.EnergyWithSleep(h, 0, 30) < res.EnergyWithSleep(h, 0, 5) {
		t.Fatal("longer wake transition saved more energy")
	}
}

func TestGapsClampToHorizon(t *testing.T) {
	// Hand-built result: busy [10,20] and [30,40].
	r := Result{
		Makespan: 40,
		Queries: []QueryResult{
			{Launched: 10, Finished: 20},
			{Launched: 30, Finished: 40},
		},
	}
	cases := []struct {
		horizon float64
		want    [][2]float64
	}{
		{50, [][2]float64{{0, 10}, {20, 30}, {40, 50}}}, // past makespan: tail gap
		{40, [][2]float64{{0, 10}, {20, 30}}},           // exactly makespan
		{35, [][2]float64{{0, 10}, {20, 30}}},           // cuts mid-busy: no gap beyond
		{25, [][2]float64{{0, 10}, {20, 25}}},           // second busy fully outside
		{15, [][2]float64{{0, 10}}},                     // cuts the first busy interval
		{5, [][2]float64{{0, 5}}},                       // before any query
		{0, nil},
		{-10, nil},
	}
	for _, c := range cases {
		got := r.Gaps(c.horizon)
		if len(got) != len(c.want) {
			t.Fatalf("Gaps(%v) = %v, want %v", c.horizon, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Gaps(%v) = %v, want %v", c.horizon, got, c.want)
			}
		}
		for _, g := range got {
			if g[0] < 0 || g[1] > c.horizon {
				t.Fatalf("Gaps(%v) produced interval %v outside [0, horizon]", c.horizon, g)
			}
		}
	}
}

func TestEnergyWithSleepNeverCreditsBeyondHorizon(t *testing.T) {
	// A query running far past the horizon used to leave a gap whose
	// right edge was its launch time (1000), crediting 990 s of sleep
	// savings inside a 100 s window — more than the window holds.
	r := Result{
		Joules:    5000,
		IdleWatts: 10,
		Makespan:  1010,
		Queries: []QueryResult{
			{Launched: 0, Finished: 10},
			{Launched: 1000, Finished: 1010},
		},
	}
	const h = 100.0
	got := r.EnergyWithSleep(h, 0, 0)
	want := r.Joules - r.IdleWatts*(h-10) // only the [10,100] gap sleeps
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("EnergyWithSleep = %v, want %v", got, want)
	}
	if floor := r.Joules - r.IdleWatts*h; got < floor {
		t.Fatalf("EnergyWithSleep = %v credits more than the whole window (floor %v)", got, floor)
	}
	// A busy interval straddling the horizon blocks the tail gap too.
	r2 := Result{
		Joules:    1000,
		IdleWatts: 10,
		Makespan:  150,
		Queries:   []QueryResult{{Launched: 0, Finished: 150}},
	}
	if got := r2.EnergyWithSleep(100, 0, 0); got != r2.Joules {
		t.Fatalf("busy-through-horizon run credited sleep savings: %v", got)
	}
}

func TestEnergyOverExtendsWithIdlePower(t *testing.T) {
	c, err := mkCluster()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, cfg(), Periodic(testSpec(), 1, 0), Immediate{})
	if err != nil {
		t.Fatal(err)
	}
	extra := res.EnergyOver(res.Makespan+10) - res.Joules
	want := res.IdleWatts * 10
	if math.Abs(extra-want) > 1e-6 {
		t.Fatalf("horizon extension added %.2f J, want %.2f", extra, want)
	}
	if res.EnergyOver(0) != res.Joules {
		t.Fatal("EnergyOver below makespan must return metered joules")
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	c, err := mkCluster()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, cfg(), nil, Immediate{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if (Immediate{}).String() != "immediate" {
		t.Fatal("Immediate string")
	}
	if (Batched{Window: 60}).String() != "batched(60s)" {
		t.Fatal("Batched string")
	}
}
