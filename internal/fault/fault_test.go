package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
)

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Homogeneous(n, hw.ClusterV()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var testCfg = Config{
	Seed: 42, Horizon: 100,
	MTTF: 10, MTTR: 1,
	StragglerEvery: 8, StragglerSecs: 2, StragglerFactor: 4,
}

// TestPlanDeterministic: same seed + same cluster shape = same plan,
// on two separately built clusters.
func TestPlanDeterministic(t *testing.T) {
	a, err := NewPlan(testCfg, testCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Empty() {
		t.Fatalf("plan is empty: %v", a)
	}
	b, err := NewPlan(testCfg, testCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plans differ:\n%v\n%v", a, b)
	}
}

// TestPlanSeedAndClusterSensitivity: a different seed or a different
// cluster shape draws a different schedule.
func TestPlanSeedAndClusterSensitivity(t *testing.T) {
	base, _ := NewPlan(testCfg, testCluster(t, 4))
	other := testCfg
	other.Seed = 43
	reseeded, _ := NewPlan(other, testCluster(t, 4))
	if reflect.DeepEqual(base, reseeded) {
		t.Fatal("different seeds produced identical plans")
	}
	resized, _ := NewPlan(testCfg, testCluster(t, 5))
	if len(resized.Crashes) > 0 && len(base.Crashes) > 0 &&
		reflect.DeepEqual(base.Crashes, resized.Crashes[:len(base.Crashes)]) {
		t.Fatal("different cluster sizes drew identical crash streams")
	}
}

// TestPlanShape: episodes respect the horizon, per-node non-overlap,
// and global (At, Node) sort order.
func TestPlanShape(t *testing.T) {
	p, err := NewPlan(testCfg, testCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	lastEnd := map[int]float64{}
	for i, cr := range p.Crashes {
		if cr.At <= 0 || cr.At >= testCfg.Horizon {
			t.Fatalf("crash %d outside horizon: %+v", i, cr)
		}
		if cr.Downtime < 0.5*testCfg.MTTR || cr.Downtime >= 1.5*testCfg.MTTR {
			t.Fatalf("crash %d downtime outside [0.5,1.5)*MTTR: %+v", i, cr)
		}
		if i > 0 && (p.Crashes[i-1].At > cr.At ||
			(p.Crashes[i-1].At == cr.At && p.Crashes[i-1].Node >= cr.Node)) {
			t.Fatalf("crashes not sorted by (At, Node) at %d", i)
		}
	}
	// Rebuild per-node order to check non-overlap.
	for _, cr := range p.Crashes {
		if float64(cr.At) < lastEnd[cr.Node] {
			t.Fatalf("overlapping outages on node %d at %v", cr.Node, cr.At)
		}
		lastEnd[cr.Node] = float64(cr.At) + cr.Downtime
	}
}

// TestConfigValidate rejects NaN/Inf/negative parameters and factors
// below 1.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MTTF: math.NaN()},
		{MTTF: math.Inf(1)},
		{MTTF: -1},
		{Horizon: -5},
		{StragglerEvery: 1, StragglerFactor: 0.5},
		{StragglerSecs: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg, testCluster(t, 2)); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestInjectorCrashLifecycle: a hand-written plan takes the node down,
// fires the crash hook, restarts on schedule, and accounts downtime.
func TestInjectorCrashLifecycle(t *testing.T) {
	c := testCluster(t, 2)
	plan := &Plan{Crashes: []Crash{{Node: 1, At: 5, Downtime: 2}}}
	inj := Inject(c, plan)
	var hooked []int
	inj.OnCrash(func(node int) { hooked = append(hooked, node) })

	n := c.Nodes[1]
	c.Eng.At(4, func() {
		if n.Down() {
			t.Error("node down before crash time")
		}
	})
	c.Eng.At(6, func() {
		if !n.Down() {
			t.Error("node not down during outage")
		}
	})
	c.Eng.At(8, func() {
		if n.Down() {
			t.Error("node still down after restart")
		}
	})
	c.Run()
	if !reflect.DeepEqual(hooked, []int{1}) {
		t.Fatalf("crash hooks fired for %v", hooked)
	}
	if got := n.DownBetween(0, 100); got != 2 {
		t.Fatalf("downtime = %v, want 2", got)
	}
	if inj.Fired() != (Counts{Crashes: 1}) {
		t.Fatalf("counts: injector=%+v", inj.Fired())
	}
}

// TestInjectorStragglerRestoresRates: rates are divided during the
// episode and restored bit-exactly after it, for a non-power-of-two
// factor.
func TestInjectorStragglerRestoresRates(t *testing.T) {
	c := testCluster(t, 1)
	n := c.Nodes[0]
	healthy := n.CPU.Rate()
	plan := &Plan{Stragglers: []Straggler{{Node: 0, At: 1, Duration: 2, Factor: 3}}}
	inj := Inject(c, plan)
	c.Eng.At(2, func() {
		if got := n.CPU.Rate(); got != healthy/3 {
			t.Errorf("mid-episode CPU rate = %v, want %v", got, healthy/3)
		}
	})
	c.Run()
	if got := n.CPU.Rate(); got != healthy {
		t.Fatalf("post-episode CPU rate = %v, want %v (bit-exact restore)", got, healthy)
	}
	if inj.Fired() != (Counts{Stragglers: 1}) {
		t.Fatalf("fired = %+v", inj.Fired())
	}
}

// TestInjectorStopDisarms: Stop before an episode's start time means it
// never fires and never perturbs the cluster.
func TestInjectorStopDisarms(t *testing.T) {
	c := testCluster(t, 1)
	plan := &Plan{
		Crashes:    []Crash{{Node: 0, At: 5, Downtime: 1}},
		Stragglers: []Straggler{{Node: 0, At: 6, Duration: 1, Factor: 4}},
	}
	inj := Inject(c, plan)
	c.Eng.At(1, func() { inj.Stop() })
	healthy := c.Nodes[0].CPU.Rate()
	c.Eng.At(6.5, func() {
		if got := c.Nodes[0].CPU.Rate(); got != healthy {
			t.Errorf("CPU rate %v inside a disarmed straggler episode, want %v", got, healthy)
		}
	})
	c.Run()
	if inj.Fired() != (Counts{}) {
		t.Fatalf("episodes fired after Stop: %+v", inj.Fired())
	}
	if c.Nodes[0].DownBetween(0, 100) != 0 {
		t.Fatal("node perturbed after Stop")
	}
}

// TestFingerprintCoversNodesAndSpecs: the fingerprint is a function of
// node count and hardware, and it is stable: it seeds every fault plan,
// so it is pinned for two clusters.
func TestFingerprintCoversNodesAndSpecs(t *testing.T) {
	a := Fingerprint(testCluster(t, 4))
	if a != Fingerprint(testCluster(t, 4)) {
		t.Fatal("fingerprint differs between two identical clusters")
	}
	if a == Fingerprint(testCluster(t, 5)) {
		t.Fatal("fingerprint ignores node count")
	}
	mixed := cluster.Mixed(2, hw.BeefyL5630(), 2, hw.WimpyModelNode())
	mc, err := cluster.New(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if a == Fingerprint(mc) {
		t.Fatal("fingerprint ignores hardware specs")
	}
	mixedL, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"4 x ClusterV", a, 0xff2e1eade055208d},
		{"2 x BeefyL5630 + 2 x LaptopB", Fingerprint(mixedL), 0x56d738c37e8aba9},
	} {
		if pin.got != pin.want {
			t.Errorf("Fingerprint(%s) = %#x, pinned %#x: a change to an hw.Spec field or its value "+
				"reseeds every fault plan, which moves the fault1/fault2 experiments and the "+
				"workload.faulted_retries benchmark row", pin.name, pin.got, pin.want)
		}
	}
}
