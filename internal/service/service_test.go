package service

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/pstore"
	"repro/internal/report"
	"repro/internal/workload"
)

func engineCfg() pstore.Config {
	return pstore.Config{WarmCache: true, BatchRows: 200_000}
}

// inflightQueued reads the pool state the tests poll on.
func (s *Server) inflightQueued() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight, s.q.Len()
}

// waitState spins until the pool shows exactly inflight in-flight and
// queued queued requests.
func waitState(s *Server, inflight, queued int) {
	for {
		i, q := s.inflightQueued()
		if i == inflight && q == queued {
			return
		}
		runtime.Gosched()
	}
}

// TestServerCountersOffMutexLine: the fields written under mu begin at
// least a 64-byte cache line after mu's word (see Server.mu).
func TestServerCountersOffMutexLine(t *testing.T) {
	var s Server
	if d := unsafe.Offsetof(s.inflight) - unsafe.Offsetof(s.mu); d < 64 {
		t.Fatalf("inflight is %d bytes after mu, want at least 64", d)
	}
}

// TestServiceByteIdenticalToRunJoin is the correctness anchor: every
// per-request result the service emits must be byte-identical to running
// the same spec through pstore.RunJoin serially on a fresh cluster.
func TestServiceByteIdenticalToRunJoin(t *testing.T) {
	reqs := []Request{
		{ID: "a", Join: &workload.JoinRequest{SF: 5, BuildSel: 0.05, ProbeSel: 0.05}},
		{ID: "b", Join: &workload.JoinRequest{SF: 5, BuildSel: 0.10, ProbeSel: 0.02}},
		{ID: "c", Join: &workload.JoinRequest{SF: 10, BuildSel: 0.05, ProbeSel: 0.05, Method: "broadcast"}},
		{ID: "d", Join: &workload.JoinRequest{SF: 10, BuildSel: 0.05, ProbeSel: 0.05, Method: "prepartitioned"}},
	}
	s, err := New(Config{
		Admission: Admission{QueueDepth: len(reqs)},
		Execution: Execution{Workers: 2, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]report.ServiceResponse, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Do(r)
		}()
	}
	wg.Wait()
	s.Close()

	for i, r := range reqs {
		if !got[i].OK() {
			t.Fatalf("request %s: %+v", r.ID, got[i])
		}
		spec, err := r.Join.Spec()
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
		if err != nil {
			t.Fatal(err)
		}
		want, joules, err := pstore.RunJoin(c, engineCfg(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Seconds != want.Seconds {
			t.Fatalf("request %s seconds = %v, RunJoin = %v", r.ID, got[i].Seconds, want.Seconds)
		}
		if got[i].Joules != joules {
			t.Fatalf("request %s joules = %v, RunJoin = %v", r.ID, got[i].Joules, joules)
		}
	}
}

// TestServiceAnswersRepeatsFromCache checks the shared-memory path:
// identical streamed requests are answered from memory (the service memo
// over the pstore.Cache) with bit-identical results and tagged as hits,
// and the runner behind the cache runs once.
func TestServiceAnswersRepeatsFromCache(t *testing.T) {
	sr := &scriptRunner{}
	s, err := New(Config{
		Admission: Admission{QueueDepth: 16},
		Execution: Execution{Workers: 2, Runner: sr, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req := Request{ID: "q", Join: &workload.JoinRequest{SF: 5}}
	first := s.Do(req)
	if !first.OK() || first.Cache != "miss" {
		t.Fatalf("first response: %+v", first)
	}
	for i := 0; i < 5; i++ {
		r := s.Do(req)
		if !r.OK() || r.Cache != "hit" {
			t.Fatalf("repeat %d not a cache hit: %+v", i, r)
		}
		if r.Seconds != first.Seconds || r.Joules != first.Joules {
			t.Fatalf("repeat %d result drifted: %+v vs %+v", i, r, first)
		}
	}
	if len(sr.order) != 1 {
		t.Fatalf("runner ran %d joins, want 1", len(sr.order))
	}
	m := s.Metrics()
	if m.CacheHits != 5 || m.CacheMisses != 1 {
		t.Fatalf("metrics = %+v, want 5 hits / 1 miss", m)
	}
}

// TestServiceBurstAdmissionControl streams 1000 concurrent join requests
// at a 2-worker, depth-8 service: admission control must engage (some
// requests queue, some shed) and every request must get exactly one
// response — none lost. The first two requests are held in the cluster
// factory until the queue behind them is full: whether a burst outruns a
// millisecond engine run is up to the host scheduler, and the faster the
// engine the likelier the queue just drains.
func TestServiceBurstAdmissionControl(t *testing.T) {
	const n = 1000
	gate := make(chan struct{})
	s, err := New(Config{
		Admission: Admission{QueueDepth: 8},
		Execution: Execution{Workers: 2, Engine: engineCfg(),
			Cluster: func() (*cluster.Cluster, error) {
				<-gate
				return cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	responses := make([]report.ServiceResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i] = s.Do(Request{Join: &workload.JoinRequest{SF: 5}})
		}()
	}
	waitState(s, 2, 8)
	close(gate)
	wg.Wait()
	s.Close()

	var ok, shed, queued int
	for i, r := range responses {
		switch r.Status {
		case "ok":
			ok++
			if r.QueueSeconds > 0 {
				queued++
			}
		case "shed":
			shed++
		default:
			t.Fatalf("response %d: %+v", i, r)
		}
	}
	if ok+shed != n {
		t.Fatalf("lost requests: ok=%d shed=%d of %d", ok, shed, n)
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("admission control did not engage: ok=%d shed=%d", ok, shed)
	}
	if queued == 0 {
		t.Fatal("no request ever waited in the queue")
	}
	m := s.Metrics()
	if m.Received != n || m.OK != int64(ok) || m.Shed != int64(shed) || m.Errors != 0 {
		t.Fatalf("metrics disagree with responses: %+v", m)
	}
	if m.CacheHits == 0 {
		t.Fatalf("identical burst produced no cache hits: %+v", m)
	}
	if m.CacheHits+m.CacheMisses != m.OK {
		t.Fatalf("every answered join must be a hit or a miss: %+v", m)
	}
	if m.Throughput <= 0 || m.MaxResponse < m.MeanResponse {
		t.Fatalf("implausible aggregates: %+v", m)
	}
	if m.P99 < m.P50 || (m.OK > 0 && m.P50 <= 0) {
		t.Fatalf("implausible percentiles: %+v", m)
	}
	def, okT := m.Tenants[DefaultTenant]
	if !okT || def.Received != n || def.OK != int64(ok) || def.Shed != int64(shed) {
		t.Fatalf("default-tenant breakdown disagrees: %+v", m.Tenants)
	}
}

// TestServiceMultiTenantBurst is the race-mode stress: 1000 requests
// across 4 tenants with mixed priorities, every request answered exactly
// once and the per-tenant counters exactly partitioning the totals.
func TestServiceMultiTenantBurst(t *testing.T) {
	const n = 1000
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	s, err := New(Config{
		Admission: Admission{
			QueueDepth: 4,
			Tenants:    map[string]Tenant{"alpha": {QueueDepth: 8, Weight: 2}},
		},
		Execution: Execution{Workers: 4, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}
	responses := make([]report.ServiceResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			prio := ""
			if i%3 == 0 {
				prio = "low"
			}
			responses[i] = s.Do(Request{
				Tenant:   tenants[i%len(tenants)],
				Priority: prio,
				Join:     &workload.JoinRequest{SF: 5},
			})
		}()
	}
	wg.Wait()
	s.Close()

	perTenant := map[string]int64{}
	var ok, shed int64
	for i, r := range responses {
		switch r.Status {
		case "ok":
			ok++
		case "shed":
			shed++
		default:
			t.Fatalf("response %d: %+v", i, r)
		}
		perTenant[r.Tenant]++
	}
	m := s.Metrics()
	if m.Received != n || m.OK != ok || m.Shed != shed {
		t.Fatalf("metrics disagree with responses: %+v (ok=%d shed=%d)", m, ok, shed)
	}
	var sum int64
	for _, name := range tenants {
		tm := m.Tenants[name]
		if tm.Received != perTenant[name] {
			t.Fatalf("tenant %s received %d, responses say %d", name, tm.Received, perTenant[name])
		}
		if tm.OK+tm.Shed+tm.Errors+tm.Deadline != tm.Received {
			t.Fatalf("tenant %s counters do not partition received: %+v", name, tm)
		}
		sum += tm.Received
	}
	if sum != n {
		t.Fatalf("tenant breakdown sums to %d, want %d", sum, n)
	}
}

// scriptRunner parks every join on gate (when non-nil) and records the
// order specs reach it — with one worker and distinct selectivities per
// tenant, the recorded order is the service's exact DRR drain order. The
// service memoizes in front of it, so a test that needs every request to
// reach it sends distinct specs.
type scriptRunner struct {
	mu    sync.Mutex
	gate  chan struct{}
	order []float64 // BuildSel of each run, in service order
}

func (r *scriptRunner) RunJoin(c *cluster.Cluster, cfg pstore.Config, spec pstore.JoinSpec) (pstore.JoinResult, float64, error) {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	r.order = append(r.order, spec.BuildSel)
	r.mu.Unlock()
	return pstore.JoinResult{Seconds: 1}, 1, nil
}

func (r *scriptRunner) RunConcurrent(c *cluster.Cluster, cfg pstore.Config, spec pstore.JoinSpec, k int) (float64, []float64, float64, error) {
	return 0, nil, 0, errors.New("unused")
}

const (
	hotSel   = 0.01
	quietSel = 0.02
)

// TestServiceFairQueueingNeverStarvesQuietTenant is the tenancy
// contract, pinned deterministically: one worker, a hot tenant with four
// queued requests and a quiet tenant with two. The drain order must
// alternate per DRR — the quiet tenant is served after at most one hot
// request, never behind the whole flood — and the quiet tenant sheds
// nothing. Each request's probe selectivity is distinct, so every one
// reaches the runner.
func TestServiceFairQueueingNeverStarvesQuietTenant(t *testing.T) {
	sr := &scriptRunner{gate: make(chan struct{})}
	s, err := New(Config{
		Admission: Admission{QueueDepth: 8},
		Execution: Execution{Workers: 1, Runner: sr, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	enqueue := func(tenant string, sel float64, queuedAfter int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := s.Do(Request{Tenant: tenant, Join: &workload.JoinRequest{SF: 5, BuildSel: sel, ProbeSel: 0.05 + 0.01*float64(queuedAfter)}})
			if !r.OK() {
				t.Errorf("tenant %s request not answered: %+v", tenant, r)
			}
		}()
		waitState(s, 1, queuedAfter)
	}

	// h0 occupies the worker (parked on the gate); the rest queue up in a
	// known order: h1 h2 h3, then q0 q1.
	enqueue("hot", hotSel, 0)
	for i := 1; i <= 3; i++ {
		enqueue("hot", hotSel, i)
	}
	enqueue("quiet", quietSel, 4)
	enqueue("quiet", quietSel, 5)
	close(sr.gate)
	wg.Wait()
	s.Close()

	want := []float64{hotSel, hotSel, quietSel, hotSel, quietSel, hotSel}
	if len(sr.order) != len(want) {
		t.Fatalf("served %d runs, want %d: %v", len(sr.order), len(want), sr.order)
	}
	for i := range want {
		if sr.order[i] != want[i] {
			t.Fatalf("drain order %v, want %v (hot=%v quiet=%v): diverges at %d",
				sr.order, want, hotSel, quietSel, i)
		}
	}
	m := s.Metrics()
	quiet, hot := m.Tenants["quiet"], m.Tenants["hot"]
	if quiet.Shed != 0 || quiet.OK != 2 || quiet.Received != 2 {
		t.Fatalf("quiet tenant starved: %+v", quiet)
	}
	if hot.Shed != 0 || hot.OK != 4 || hot.Received != 4 {
		t.Fatalf("hot tenant counters: %+v", hot)
	}
}

// TestServicePerTenantQuotaShedsOnlyTheFlood: a hot tenant past its
// queue quota is shed while the quiet tenant's requests are still
// admitted — per-tenant admission, not a shared pool.
func TestServicePerTenantQuotaShedsOnlyTheFlood(t *testing.T) {
	sr := &scriptRunner{gate: make(chan struct{})}
	s, err := New(Config{
		Admission: Admission{QueueDepth: 2},
		Execution: Execution{Workers: 1, Runner: sr, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	enqueue := func(tenant string, sel float64, queuedAfter int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(Request{Tenant: tenant, Join: &workload.JoinRequest{SF: 5, BuildSel: sel, ProbeSel: 0.05}})
		}()
		waitState(s, 1, queuedAfter)
	}
	enqueue("hot", hotSel, 0) // in flight
	enqueue("hot", hotSel, 1)
	enqueue("hot", hotSel, 2) // hot queue now at quota

	// A shed Do returns synchronously — no goroutine needed.
	if r := s.Do(Request{Tenant: "hot", Join: &workload.JoinRequest{SF: 5, BuildSel: hotSel, ProbeSel: 0.05}}); r.Status != "shed" {
		t.Fatalf("over-quota hot request = %+v, want shed", r)
	}
	// The quiet tenant still has its whole quota.
	enqueue("quiet", quietSel, 3)
	if r := s.Do(Request{Tenant: "hot", Join: &workload.JoinRequest{SF: 5, BuildSel: hotSel, ProbeSel: 0.05}}); r.Status != "shed" {
		t.Fatalf("hot request after quiet admission = %+v, want shed", r)
	}
	close(sr.gate)
	wg.Wait()
	s.Close()

	m := s.Metrics()
	if q := m.Tenants["quiet"]; q.Shed != 0 || q.OK != 1 {
		t.Fatalf("quiet tenant shed under a neighbor's flood: %+v", q)
	}
	if h := m.Tenants["hot"]; h.Shed != 2 || h.OK != 3 {
		t.Fatalf("hot tenant counters: %+v", h)
	}
}

// TestServiceHighPriorityDisplacesQueuedLow: a high-priority request
// arriving at a full tenant queue evicts that tenant's newest queued
// low-priority request (answered "shed") and takes its place; queued
// high-priority work launches before queued low.
func TestServiceHighPriorityDisplacesQueuedLow(t *testing.T) {
	sr := &scriptRunner{gate: make(chan struct{})}
	s, err := New(Config{
		Admission: Admission{QueueDepth: 2},
		Execution: Execution{Workers: 1, Runner: sr, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}

	responses := make([]report.ServiceResponse, 4)
	var wg sync.WaitGroup
	do := func(i int, prio string, sel float64, queuedAfter int) chan report.ServiceResponse {
		ch := make(chan report.ServiceResponse, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := s.Do(Request{Tenant: "t", Priority: prio,
				Join: &workload.JoinRequest{SF: 5, BuildSel: sel, ProbeSel: 0.05}})
			responses[i] = r
			ch <- r
		}()
		waitState(s, 1, queuedAfter)
		return ch
	}
	do(0, "low", 0.01, 0)           // in flight
	do(1, "low", 0.02, 1)           // queued low
	victim := do(2, "low", 0.03, 2) // queued low, newest — the eviction victim
	// Queue full. A high request displaces the newest low; the queue
	// stays at 2 (the displaced slot is reused), and the victim's Do is
	// answered "shed" before the worker ever frees up.
	do(3, "high", 0.04, 2)
	if v := <-victim; v.Status != "shed" || v.Error == "" {
		close(sr.gate)
		t.Fatalf("displaced low request = %+v, want shed with reason", v)
	}
	close(sr.gate)
	wg.Wait()
	s.Close()

	if !responses[0].OK() || !responses[1].OK() || !responses[3].OK() {
		t.Fatalf("surviving requests: %+v %+v %+v", responses[0], responses[1], responses[3])
	}
	// Drain order after the in-flight 0.01: the high-band 0.04 before the
	// low-band 0.02.
	want := []float64{0.01, 0.04, 0.02}
	for i := range want {
		if sr.order[i] != want[i] {
			t.Fatalf("drain order %v, want %v", sr.order, want)
		}
	}
	m := s.Metrics()
	if tm := m.Tenants["t"]; tm.Shed != 1 || tm.OK != 3 || tm.Received != 4 {
		t.Fatalf("tenant counters: %+v", tm)
	}
}

// TestServiceDesignRequests: design requests are answered by the
// analytical model and match a direct Designer run.
func TestServiceDesignRequests(t *testing.T) {
	s, err := New(Config{
		Admission: Admission{QueueDepth: 2},
		Execution: Execution{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := Request{
		ID: "d1",
		Design: &DesignRequest{
			BuildGB: 700, ProbeGB: 2800, Nodes: 8, Target: 0.6,
			BuildSel: 0.1, ProbeSel: 0.02,
		},
	}
	r := s.Do(req)
	if !r.OK() || r.Design == "" || r.Kind != "design" {
		t.Fatalf("design response: %+v", r)
	}
	base := model.FromSpecs(8, hw.ClusterV(), 0, hw.WimpyModelNode())
	base.Bld, base.Prb = 700*1000, 2800*1000
	base.Sbld, base.Sprb = 0.1, 0.02
	adv, err := core.Designer{Base: base, MaxNodes: 8}.Recommend(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Design != adv.Best.Label() || r.Seconds != adv.Best.Seconds || r.Joules != adv.Best.Joules {
		t.Fatalf("service design %+v, direct designer %+v", r, adv.Best)
	}
	// Repeats are memoized silently — same answer, new ID.
	r2 := s.Do(Request{ID: "d2", Design: req.Design})
	if r2.ID != "d2" || r2.Design != r.Design || r2.Seconds != r.Seconds {
		t.Fatalf("memoized design drifted: %+v vs %+v", r2, r)
	}
}

// TestServiceErrorResponses: invalid requests are answered at once
// (status "error", flagged request-invalid), counted, and never crash a
// worker. A join past the largest servable SF is one: it would otherwise
// hold a worker for hours. So is one too small to give ORDERS a row.
func TestServiceErrorResponses(t *testing.T) {
	s, err := New(Config{
		Admission: Admission{QueueDepth: 4},
		Execution: Execution{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{ID: "m", Join: &workload.JoinRequest{Method: "sort-merge"}},
		{ID: "sf", Join: &workload.JoinRequest{SF: -3}},
		{ID: "huge", Join: &workload.JoinRequest{SF: 1e9}},
		{ID: "tiny", Join: &workload.JoinRequest{SF: 1e-9}},
		{ID: "k", Kind: "compactions"},
		{ID: "t", Design: &DesignRequest{Target: 2}},
		{ID: "v", V: 2, Join: &workload.JoinRequest{SF: 5}},
		{ID: "p", Priority: "urgent", Join: &workload.JoinRequest{SF: 5}},
		{ID: "dl", Deadline: -1, Join: &workload.JoinRequest{SF: 5}},
	}
	for _, r := range bad {
		start := time.Now()
		resp := s.Do(r)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("request %s answered after %v", r.ID, took)
		}
		if resp.Status != "error" || resp.Error == "" {
			t.Fatalf("request %s: %+v", r.ID, resp)
		}
		if !resp.Invalid {
			t.Fatalf("request %s not flagged request-invalid: %+v", r.ID, resp)
		}
	}
	m := s.Metrics()
	if m.Errors != int64(len(bad)) || m.OK != 0 {
		t.Fatalf("metrics = %+v, want %d errors", m, len(bad))
	}
	s.Close()
	// After Close, Do answers with an error instead of panicking.
	if resp := s.Do(Request{}); resp.Status != "error" {
		t.Fatalf("post-close response: %+v", resp)
	}
}

// TestServiceConfigValidation rejects nonsensical pools and tenants.
func TestServiceConfigValidation(t *testing.T) {
	cases := []Config{
		{Execution: Execution{Workers: -1}},
		{Admission: Admission{QueueDepth: -2}},
		{Execution: Execution{ClusterNodes: -4}},
		{Admission: Admission{Timeout: -1}},
		{Admission: Admission{Timeout: math.NaN()}},
		{Admission: Admission{Timeout: math.Inf(1)}},
		{Admission: Admission{Tenants: map[string]Tenant{"x": {QueueDepth: -1}}}},
		{Admission: Admission{Tenants: map[string]Tenant{"x": {Weight: -1}}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestServiceDeadlineExpiresQueuedRequests: a request that outwaits the
// per-request deadline_s in the queue is answered with status "deadline"
// without launching.
func TestServiceDeadlineExpiresQueuedRequests(t *testing.T) {
	sr := &scriptRunner{gate: make(chan struct{})}
	s, err := New(Config{
		Admission: Admission{QueueDepth: 2},
		Execution: Execution{Workers: 1, Runner: sr, Engine: engineCfg()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	var first, second report.ServiceResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		first = s.Do(Request{ID: "holds", Join: &workload.JoinRequest{SF: 5}})
	}()
	waitState(s, 1, 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Per-request deadline overrides the (unset) service default.
		second = s.Do(Request{ID: "expires", Deadline: 0.05, Join: &workload.JoinRequest{SF: 5}})
	}()
	waitState(s, 1, 1)
	time.Sleep(100 * time.Millisecond) // blow the 50 ms deadline while queued
	close(sr.gate)
	wg.Wait()

	if !first.OK() {
		t.Fatalf("in-flight request failed: %+v", first)
	}
	if second.Status != "deadline" || second.Error == "" {
		t.Fatalf("queued request did not expire: %+v", second)
	}
	if second.QueueSeconds < 0.05 {
		t.Fatalf("expired request reports implausible queue wait: %+v", second)
	}
	m := s.Metrics()
	if m.Deadline != 1 || m.OK != 1 || m.Errors != 0 {
		t.Fatalf("metrics = %+v, want 1 deadline / 1 ok", m)
	}
}

// TestServiceZeroQueueAdmitsIdleWorkers: QueueDepth 0 means no waiting
// room, but an idle worker must still accept work — sequential requests
// are never shed. The worker is free by the time its answer arrives.
func TestServiceZeroQueueAdmitsIdleWorkers(t *testing.T) {
	s, err := New(Config{Execution: Execution{Workers: 1, Engine: engineCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if r := s.Do(Request{Join: &workload.JoinRequest{SF: 5}}); !r.OK() {
			t.Fatalf("sequential request %d refused by an idle service: %+v", i, r)
		}
		if inflight, queued := s.inflightQueued(); inflight != 0 || queued != 0 {
			t.Fatalf("after answer %d the pool shows %d in flight, %d queued", i, inflight, queued)
		}
	}
	if m := s.Metrics(); m.Shed != 0 || m.OK != 5 {
		t.Fatalf("metrics = %+v", m)
	}
}
