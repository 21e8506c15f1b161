package pstore

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func cacheTestSpec(sf tpch.ScaleFactor, bSel, pSel float64, m JoinMethod) JoinSpec {
	return JoinSpec{
		Build: storage.TableDef{
			Table: tpch.Orders, SF: sf, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "O_CUSTKEY",
		},
		Probe: storage.TableDef{
			Table: tpch.Lineitem, SF: sf, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE",
		},
		BuildSel: bSel, ProbeSel: pSel, Method: m,
	}
}

func cacheTestCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Homogeneous(n, hw.ClusterV()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheHitMiss counts traffic for a repeated (cluster, Config,
// JoinSpec) join: the first request simulates, the second is served from
// memory with a bit-identical result.
func TestCacheHitMiss(t *testing.T) {
	cache := NewCache(nil)
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(5, 0.05, 0.05, DualShuffle)

	r1, j1, err := cache.RunJoin(cacheTestCluster(t, 4), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first run: %+v, want 0 hits / 1 miss", s)
	}

	r2, j2, err := cache.RunJoin(cacheTestCluster(t, 4), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after repeat: %+v, want 1 hit / 1 miss", s)
	}
	if r1 != r2 || j1 != j2 {
		t.Fatalf("cached result differs: %+v/%v vs %+v/%v", r1, j1, r2, j2)
	}

	// A different cluster size, config, or spec is a distinct key.
	if _, _, err := cache.RunJoin(cacheTestCluster(t, 2), cfg, spec); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.JoinWork = 2
	if _, _, err := cache.RunJoin(cacheTestCluster(t, 4), cfg2, spec); err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.ProbeSel = 0.10
	if _, _, err := cache.RunJoin(cacheTestCluster(t, 4), cfg, spec2); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("distinct keys collided: %+v, want 1 hit / 4 misses", s)
	}
}

// TestCacheMatchesEngine proves memoized results equal fresh engine runs
// (the simulation is deterministic, so this must be exact).
func TestCacheMatchesEngine(t *testing.T) {
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(5, 0.05, 0.25, DualShuffle)

	fresh, freshJ, err := Engine{}.RunJoin(cacheTestCluster(t, 4), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(nil)
	for i := 0; i < 2; i++ {
		got, gotJ, err := cache.RunJoin(cacheTestCluster(t, 4), cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh || gotJ != freshJ {
			t.Fatalf("run %d: cache %+v/%v differs from engine %+v/%v", i, got, gotJ, fresh, freshJ)
		}
	}
}

// TestCacheConcurrencyLevels: RunConcurrent keys include k, and k=1 is
// served from the single-join cache (one concurrent copy is the same
// simulation as RunJoin).
func TestCacheConcurrencyLevels(t *testing.T) {
	cache := NewCache(nil)
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(5, 0.05, 0.05, DualShuffle)

	res, joules, err := cache.RunJoin(cacheTestCluster(t, 4), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	mk1, per1, j1, err := cache.RunConcurrent(cacheTestCluster(t, 4), cfg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("k=1 did not reuse the single-join entry: %+v", s)
	}
	if mk1 != res.Seconds || len(per1) != 1 || per1[0] != res.Seconds || j1 != joules {
		t.Fatalf("k=1 result (%v, %v, %v) does not match RunJoin (%v, %v)", mk1, per1, j1, res.Seconds, joules)
	}

	mk2a, _, _, err := cache.RunConcurrent(cacheTestCluster(t, 4), cfg, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk2b, _, _, err := cache.RunConcurrent(cacheTestCluster(t, 4), cfg, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mk2a != mk2b {
		t.Fatalf("cached k=2 makespan differs: %v vs %v", mk2a, mk2b)
	}
	if s := cache.Stats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("k=2 keying wrong: %+v, want 2 hits / 2 misses", s)
	}
	if mk2a <= mk1 {
		t.Fatalf("two concurrent copies (%v s) not slower than one (%v s)", mk2a, mk1)
	}

	// Direct engine comparison for the k=1 shortcut.
	mkE, perE, jE, err := Engine{}.RunConcurrent(cacheTestCluster(t, 4), cfg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mkE != mk1 || jE != j1 || len(perE) != 1 || math.Abs(perE[0]-per1[0]) != 0 {
		t.Fatalf("k=1 shortcut diverges from engine: (%v,%v,%v) vs (%v,%v,%v)", mk1, per1, j1, mkE, perE, jE)
	}
}

// panicRunner panics on its first call, RunJoin or RunConcurrent, then
// delegates to the engine.
type panicRunner struct{ calls int }

func (p *panicRunner) panicFirst() {
	p.calls++
	if p.calls == 1 {
		panic("engine bug")
	}
}

func (p *panicRunner) RunJoin(c *cluster.Cluster, cfg Config, spec JoinSpec) (JoinResult, float64, error) {
	p.panicFirst()
	return Engine{}.RunJoin(c, cfg, spec)
}

func (p *panicRunner) RunConcurrent(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) (float64, []float64, float64, error) {
	p.panicFirst()
	return Engine{}.RunConcurrent(c, cfg, spec, k)
}

// TestCachePanicDoesNotPoison: a panicking simulation must not leave an
// in-flight entry that deadlocks every later request for the key — the
// panic propagates to its caller, a retry re-simulates, and the retried
// entry then serves hits. k = 1 takes the single-join path, k = 2 the
// concurrent one.
func TestCachePanicDoesNotPoison(t *testing.T) {
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(5, 0.05, 0.05, DualShuffle)
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cache := NewCache(&panicRunner{})
			run := func() ([]float64, error) {
				_, perQuery, _, err := cache.RunConcurrent(cacheTestCluster(t, 4), cfg, spec, k)
				return perQuery, err
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("panic did not propagate to the caller")
					}
				}()
				run()
			}()

			done := make(chan error, 1)
			go func() {
				_, err := run()
				done <- err
			}()
			if err := <-done; err != nil {
				t.Fatalf("retry after panic failed: %v", err)
			}
			if perQuery, err := run(); err != nil || len(perQuery) != k {
				t.Fatalf("hit after retry: %d per-query times, err %v; want %d, nil", len(perQuery), err, k)
			}
			if s := cache.Stats(); s.Misses != 2 || s.Hits != 1 {
				t.Fatalf("traffic %+v, want 2 misses (the panic and the retry) and 1 hit", s)
			}
		})
	}
}

// TestCacheInFlightSharing: concurrent requests for the same key run the
// simulation once; late arrivals wait and count as hits.
func TestCacheInFlightSharing(t *testing.T) {
	cache := NewCache(nil)
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(5, 0.05, 0.05, Broadcast)
	spec.BuildSel = 0.01

	const callers = 4
	clusters := make([]*cluster.Cluster, callers)
	for i := range clusters {
		clusters[i] = cacheTestCluster(t, 4)
	}
	results := make([]JoinResult, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			defer wg.Done()
			r, _, err := cache.RunJoin(clusters[i], cfg, spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	s := cache.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("in-flight sharing failed: %+v, want 1 miss / %d hits", s, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

// ptrCoeffs/ptrModel mimic a fitted power model that holds its
// coefficients behind a pointer and prints only a generic name. No hw
// model is built this way; the key renders such a model by address.
type ptrCoeffs struct{ A, B float64 }

type ptrModel struct{ p *ptrCoeffs }

func (m ptrModel) Watts(u float64) float64 { return m.p.A + m.p.B*u }
func (m ptrModel) String() string          { return "fitted" }

func ptrModelCluster(t *testing.T, a, b float64) *cluster.Cluster {
	t.Helper()
	spec := hw.ClusterV()
	spec.Power = ptrModel{p: &ptrCoeffs{A: a, B: b}}
	c, err := cluster.New(cluster.Homogeneous(2, spec))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFingerprintPointerModels: a pointer-typed power model keys by
// address. Models that differ only behind the pointer (the Stringer
// prints the same) must never share a key; separately allocated
// equal-valued models miss, a conservative cost and never a wrong answer.
func TestFingerprintPointerModels(t *testing.T) {
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(1, 0.05, 0.05, DualShuffle)

	c1 := ptrModelCluster(t, 100, 50)
	c2 := ptrModelCluster(t, 100, 50) // fresh allocations, equal values
	c3 := ptrModelCluster(t, 100, 75) // same type + Stringer output, different coeffs

	k1 := fingerprint(c1, cfg, spec, 1)
	k2 := fingerprint(c2, cfg, spec, 1)
	k3 := fingerprint(c3, cfg, spec, 1)
	if k1 == k3 || k2 == k3 {
		t.Fatalf("different coefficients behind a pointer collided:\n%s", k3)
	}
	if k1 == k2 {
		t.Fatalf("separately allocated pointer models share a key:\n%s", k1)
	}
	if k1 != fingerprint(c1, cfg, spec, 1) {
		t.Fatal("one cluster fingerprints differently twice")
	}

	cache := NewCache(nil)
	for _, c := range []*cluster.Cluster{c1, c2, c3, c1} {
		if _, _, err := cache.RunJoin(c, cfg, spec); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 hit (the same cluster again) / 3 misses", s)
	}
}

// TestFingerprintKeepsStringerOmittedFields guards the value-model case
// too: PowerLaw.Floor is absent from its String output but must still
// distinguish cache keys.
func TestFingerprintKeepsStringerOmittedFields(t *testing.T) {
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(1, 0.05, 0.05, DualShuffle)

	mk := func(floor float64) *cluster.Cluster {
		s := hw.ClusterV()
		s.Power = power.PowerLaw{A: 130.03, B: 0.2369, Floor: floor}
		c, err := cluster.New(cluster.Homogeneous(2, s))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if fingerprint(mk(0), cfg, spec, 1) == fingerprint(mk(0.05), cfg, spec, 1) {
		t.Fatal("PowerLaw.Floor does not participate in the fingerprint")
	}
}

// mutateLeaf changes the n-th leaf value reachable from v (depth first,
// fields in declaration order, through slices and interfaces) and
// returns the leaf's path. ok is false when v has n or fewer leaves.
func mutateLeaf(t *testing.T, v reflect.Value, path string, n *int) (string, bool) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := mutateLeaf(t, v.Field(i), path+"."+v.Type().Field(i).Name, n); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p, ok := mutateLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Interface:
		// The dynamic value is not addressable: mutate a copy, store it back.
		cp := reflect.New(v.Elem().Type()).Elem()
		cp.Set(v.Elem())
		p, ok := mutateLeaf(t, cp, path+".("+cp.Type().String()+")", n)
		if ok {
			v.Set(cp)
		}
		return p, ok
	}
	if *n > 0 {
		*n--
		return "", false
	}
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float() + 0.5)
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no mutation for kind %v", path, v.Kind())
	}
	return path, true
}

// TestFingerprintCoversEveryField is the field-mutation oracle for the
// join-cache key: for every value reachable from Config, JoinSpec and a
// node's hw.Spec, down to the coefficients of each hw power-model type,
// a copy that differs in that value alone must get a different key.
func TestFingerprintCoversEveryField(t *testing.T) {
	type request struct {
		Cfg  Config
		Spec JoinSpec
		Node hw.Spec
	}
	for _, tc := range []struct {
		model power.Model
		coeff string // a path the walk must reach
	}{
		{power.PowerLaw{A: 130.03, B: 0.2369, Floor: 0.05}, "Node.Power.(power.PowerLaw).Floor"},
		{power.Linear{Idle: 40, Peak: 90}, "Node.Power.(power.Linear).Peak"},
	} {
		base := func() *request {
			r := &request{
				Cfg:  Config{BatchRows: 200_000, WarmCache: true, JoinWork: 1.5, MailboxCap: 8},
				Spec: cacheTestSpec(5, 0.05, 0.25, DualShuffle),
				Node: hw.ClusterV(),
			}
			r.Spec.BuildNodes = []int{0, 1}
			r.Node.Power = tc.model
			return r
		}
		key := func(r *request) string {
			c, err := cluster.New(cluster.Homogeneous(2, r.Node))
			if err != nil {
				t.Fatal(err)
			}
			return fingerprint(c, r.Cfg, r.Spec, 1)
		}
		want := key(base())
		var paths []string
		for n := 0; ; n++ {
			r, left := base(), n
			path, ok := mutateLeaf(t, reflect.ValueOf(r).Elem(), "", &left)
			if !ok {
				break
			}
			path = path[1:]
			paths = append(paths, path)
			if key(r) == want {
				t.Errorf("%T: changing %s alone leaves the key unchanged", tc.model, path)
			}
		}
		if !slices.Contains(paths, tc.coeff) {
			t.Errorf("%T: the walk never reached %s; it visited %v", tc.model, tc.coeff, paths)
		}
	}
}

// TestRunJoinHitReporting checks the per-request hit flag used by the
// service mode.
func TestRunJoinHitReporting(t *testing.T) {
	cache := NewCache(nil)
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(1, 0.05, 0.05, DualShuffle)

	_, _, hit, err := cache.RunJoinHit(cacheTestCluster(t, 2), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported as a hit")
	}
	r2, j2, hit, err := cache.RunJoinHit(cacheTestCluster(t, 2), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("repeat request not reported as a hit")
	}
	r3, j3, err := cache.RunJoin(cacheTestCluster(t, 2), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r3 || j2 != j3 {
		t.Fatal("RunJoinHit and RunJoin disagree on the cached result")
	}
}

// cyclicModel holds a back-reference to itself: fingerprinting must
// terminate, and distinct models must never share a key.
type cyclicModel struct {
	A    float64
	Self *cyclicModel
}

func (m *cyclicModel) Watts(u float64) float64 { return m.A * u }
func (m *cyclicModel) String() string          { return "cyclic" }

func TestFingerprintCyclicModelTerminates(t *testing.T) {
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	spec := cacheTestSpec(1, 0.05, 0.05, DualShuffle)
	mk := func(a float64) *cluster.Cluster {
		s := hw.ClusterV()
		m := &cyclicModel{A: a}
		m.Self = m
		s.Power = m
		c, err := cluster.New(cluster.Homogeneous(2, s))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2, c3 := mk(100), mk(100), mk(200)
	k1 := fingerprint(c1, cfg, spec, 1)
	k2 := fingerprint(c2, cfg, spec, 1)
	k3 := fingerprint(c3, cfg, spec, 1)
	if k1 == k3 || k2 == k3 || k1 == k2 {
		t.Fatalf("distinct cyclic models collided:\n%s\n%s\n%s", k1, k2, k3)
	}
}

// TestSF100ShuffleJoinPinned pins what the kernel does for the SF-100
// 8-node warm shuffle join — the join the repo benchmark probes as
// pstore.join_sf100_* — to constants recorded on commit 5db2a69, the last
// with the channel-handoff kernel, where every one of its events was a
// process resume. A kernel change that moves the event count, the
// simulated seconds or the joules fails here, not only in a benchmark
// run, and so does one that keeps the count but moves an event's time or
// order: the event hash folds every (time, seq), and it is the hash the
// same join gave while its scans and finalizer were processes. What may
// move is who runs an event: since the scans and the finalizer became
// tasks too, a join resumes no process, and every event is a callback.
func TestSF100ShuffleJoinPinned(t *testing.T) {
	c := cacheTestCluster(t, 8)
	res, joules, err := RunJoin(c, Config{WarmCache: true, BatchRows: 200_000},
		cacheTestSpec(100, 0.05, 0.05, DualShuffle))
	if err != nil {
		t.Fatal(err)
	}
	const (
		seconds = 0.8254087307126627
		joule   = 2367.5991757176835
	)
	const events, hash = 94329, 0xc8bd808b3e74f737
	if s := c.Eng.Stats(); s.Events != events || s.Hash != hash || s.Resumes+s.Continues != 0 ||
		s.Callbacks != s.Events {
		t.Errorf("kernel did %+v, want %d events of hash %#x, every one a callback", s, events, uint64(hash))
	}
	if res.Seconds != seconds || joules != joule {
		t.Errorf("join took %v s and %v J, want %v s and %v J", res.Seconds, joules, seconds, joule)
	}
}

// TestSF100HeterogeneousJoinsPinned pins the two hop shapes the shuffle
// pin above does not reach, on 2 Beefy + 2 Wimpy nodes with a Beefy-only
// build (BuildNodes {0, 1}): a Broadcast join, whose Wimpy non-owners
// ship their probe batches round-robin to the owners, and a dual shuffle,
// where all four nodes send into the two Beefy ingress ports. The
// constants were recorded on commit 672c1fb; as above, a change that
// adds, drops or reorders an event on these paths fails here.
func TestSF100HeterogeneousJoinsPinned(t *testing.T) {
	for _, tc := range []struct {
		method         JoinMethod
		seconds, joule float64
		events, hash   uint64
	}{
		{Broadcast, 3.848811032982934, 1856.2036566484105, 20459, 0x398931703e65fed6},
		{DualShuffle, 4.166934783421167, 2000.1300364229621, 31525, 0xbf84d40af910ae6},
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
			if err != nil {
				t.Fatal(err)
			}
			spec := cacheTestSpec(100, 0.05, 0.05, tc.method)
			spec.BuildNodes = []int{0, 1}
			res, joules, err := RunJoin(c, Config{WarmCache: true, BatchRows: 200_000}, spec)
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Eng.Stats(); s.Events != tc.events || s.Hash != tc.hash || s.Callbacks != s.Events {
				t.Errorf("kernel did %+v, want %d events of hash %#x, every one a callback", s, tc.events, tc.hash)
			}
			if res.Seconds != tc.seconds || joules != tc.joule {
				t.Errorf("join took %v s and %v J, want %v s and %v J", res.Seconds, joules, tc.seconds, tc.joule)
			}
		})
	}
}
