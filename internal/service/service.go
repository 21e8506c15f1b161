// Package service is the multi-tenant service plane of the workload
// stream. A Server accepts a stream of join/design requests in a
// versioned envelope (Request: tenant, priority, per-request deadline,
// and a join or design payload), admits them against per-tenant quotas,
// queues them in per-tenant FIFO queues (internal/service/fairq), and
// drains those queues with deficit-round-robin fair queueing onto a
// bounded worker pool — one hot tenant can fill only its own waiting
// room, and a quiet tenant's requests wait behind at most one DRR round,
// never behind the flood.
//
// Priorities are two-level and strict: queued high-priority work is
// served before any low-priority work, and under pressure the service
// sheds low before high — a high request arriving at a full tenant queue
// displaces that tenant's newest queued low request. Requests still
// queued at their deadline (per-request deadline_s, or the service-wide
// Admission.Timeout) are answered with status "deadline" without
// launching. A join runs once: the engine is deterministic, so a run that
// failed would fail the same way again, and its error is the answer.
//
// Join requests are answered through a pstore.Cache over the engine (or
// over Execution.Runner), so identical requests are served from memory,
// bit-identical to a fresh engine run, and the Server adds a per-request
// memo on top so steady-state cache hits skip cluster construction and
// fingerprinting entirely. Responses are typed report.ServiceResponse
// values; aggregate report.ServiceMetrics now carry per-tenant
// breakdowns and p50/p95/p99 latency percentiles from fixed-bucket
// histograms. cmd/serve wires the Server to JSON lines on stdin or an
// HTTP endpoint; internal/replay drives it from a request trace.
package service

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/pstore"
	"repro/internal/report"
	"repro/internal/service/fairq"
	"repro/internal/workload"
)

// DefaultTenant is where requests without a tenant (including every
// legacy flat request) are accounted and queued.
const DefaultTenant = "default"

// Config controls a Server, split by concern: Admission decides what
// gets in (quotas, fairness weights, deadlines), Execution decides how
// admitted work runs (pool size, cluster, engine).
type Config struct {
	Admission Admission
	Execution Execution
}

// Admission is the tenancy face of the service: per-tenant waiting-room
// quotas and fair-queueing weights, plus the default deadline.
type Admission struct {
	// QueueDepth bounds each tenant's waiting room (queued requests
	// beyond the in-flight ones) unless overridden in Tenants. A
	// request arriving with its tenant's room full is shed — unless it
	// is high priority and a queued low request of the same tenant can
	// be displaced instead. Zero means no waiting room: a request is
	// admitted only if a worker is free to take it immediately
	// (cmd/serve defaults the flag to 64).
	QueueDepth int
	// Tenants overrides quota and weight per tenant name. Tenants not
	// listed get QueueDepth and weight 1.
	Tenants map[string]Tenant
	// Timeout is the default per-request deadline in wall seconds from
	// arrival, used when a request carries no deadline_s of its own. A
	// request still queued at its deadline is answered with status
	// "deadline" without launching. Zero means no deadline (cmd/serve
	// -timeout).
	Timeout float64
}

// Tenant is one tenant's admission quota and fair-queueing weight.
type Tenant struct {
	// QueueDepth is this tenant's waiting room (0 = Admission.QueueDepth).
	QueueDepth int
	// Weight is the DRR quantum: how many of this tenant's requests are
	// served per fair-queueing round (0 = 1).
	Weight int
}

// Execution configures how admitted requests run.
type Execution struct {
	// Workers is the maximum number of in-flight requests (default 4).
	Workers int
	// Runner runs the joins the service has not answered before (nil
	// means the engine). It is the seam where tests put a fake; the
	// service always memoizes in front of it, so a fake sees each
	// distinct request once.
	Runner pstore.JoinRunner
	// Cluster builds the per-request simulated cluster (default:
	// ClusterNodes homogeneous cluster-V nodes). Identical clusters
	// fingerprint identically, so fresh instances still share cache
	// entries.
	Cluster func() (*cluster.Cluster, error)
	// ClusterNodes sizes the default cluster factory (default 4).
	ClusterNodes int
	// Engine is the P-store configuration for join runs.
	Engine pstore.Config
}

type job struct {
	req      Request
	tenant   string // normalized (DefaultTenant for "")
	deadline float64
	arrival  time.Time
	done     chan report.ServiceResponse
}

// tenantStats is one tenant's live counters and latency histograms.
type tenantStats struct {
	received, ok, shed, errs, deadline int64
	hits, misses                       int64
	respSum, respMax                   float64
	wall, queue                        report.Histogram
}

// memoVal is a memoized join answer (see Server.memo).
type memoVal struct {
	seconds, joules float64
}

// Server is a running workload-stream service. Create with New, submit
// with Do (safe for concurrent use), finish with Close.
type Server struct {
	cfg Config
	// cache memoizes Execution.Runner and tags join responses hit/miss.
	cache *pstore.Cache
	mk    func() (*cluster.Cluster, error)
	wg    sync.WaitGroup

	start time.Time
	now   func() time.Time

	// memo short-circuits repeated identical requests without touching
	// the shared cache's fingerprint path (no cluster build, no key
	// rendering): within one Server the engine config and cluster
	// factory are fixed, so the request value alone is a complete key.
	// Join memo hits count (and tag) as cache hits in the service's own
	// metrics; design memoization is silent — design responses never
	// carried a cache tag. mu guards the contents of the three maps;
	// the map fields themselves are set once, in New, and sit above mu
	// so that mu keeps its 64-byte-aligned offset (see mu).
	memo       map[workload.JoinRequest]memoVal
	memoDesign map[DesignRequest]report.ServiceResponse
	tenants    map[string]*tenantStats

	// mu guards q and every field below it. Every Do and every worker
	// takes it, and a goroutine waiting for it spins reading its word,
	// so the fields the holder writes start a cache line after it. With
	// inflight and the first counters on mu's line, serve_flood's p50
	// was 0.065 ms against 0.032 ms (medians of four runs each, 2 vCPUs).
	// The pad fills mu, cond and q out to 64 bytes
	// (TestServerCountersOffMutexLine). mu sits at offset 192, a multiple
	// of 64; at offset 168 serve_flood's p50 read 0.039 ms against
	// 0.030 ms at 192 (medians of 8 interleaved pairs, 2 vCPUs).
	mu       sync.Mutex
	cond     *sync.Cond
	q        *fairq.Queue[*job]
	_        [40]byte
	inflight int
	closed   bool

	received int64
	ok       int64
	shed     int64
	errs     int64
	deadline int64
	okJoins  int64
	hits     int64
	misses   int64
	respSum  float64
	respMax  float64
	joules   float64
	wallHist report.Histogram
}

// New starts a Server and its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Execution.Workers == 0 {
		cfg.Execution.Workers = 4
	}
	if cfg.Execution.Workers < 1 {
		return nil, fmt.Errorf("service: Workers must be at least 1, got %d", cfg.Execution.Workers)
	}
	if cfg.Admission.QueueDepth < 0 {
		return nil, fmt.Errorf("service: QueueDepth must not be negative, got %d", cfg.Admission.QueueDepth)
	}
	for name, t := range cfg.Admission.Tenants {
		if t.QueueDepth < 0 {
			return nil, fmt.Errorf("service: tenant %q QueueDepth must not be negative, got %d", name, t.QueueDepth)
		}
		if t.Weight < 0 {
			return nil, fmt.Errorf("service: tenant %q Weight must not be negative, got %d", name, t.Weight)
		}
	}
	if cfg.Execution.ClusterNodes == 0 {
		cfg.Execution.ClusterNodes = 4
	}
	if cfg.Execution.ClusterNodes < 1 {
		return nil, fmt.Errorf("service: ClusterNodes must be at least 1, got %d", cfg.Execution.ClusterNodes)
	}
	if cfg.Admission.Timeout < 0 || math.IsNaN(cfg.Admission.Timeout) || math.IsInf(cfg.Admission.Timeout, 0) {
		return nil, fmt.Errorf("service: Timeout must be a positive, finite number of seconds (0 = none), got %v", cfg.Admission.Timeout)
	}
	s := &Server{
		cfg:        cfg,
		cache:      pstore.NewCache(cfg.Execution.Runner),
		mk:         cfg.Execution.Cluster,
		tenants:    make(map[string]*tenantStats),
		now:        time.Now,
		memo:       make(map[workload.JoinRequest]memoVal),
		memoDesign: make(map[DesignRequest]report.ServiceResponse),
	}
	s.cond = sync.NewCond(&s.mu)
	s.q = fairq.New[*job](s.weight)
	if s.mk == nil {
		nodes := cfg.Execution.ClusterNodes
		s.mk = func() (*cluster.Cluster, error) {
			return cluster.New(cluster.Homogeneous(nodes, hw.ClusterV()))
		}
	}
	s.start = s.now()
	s.wg.Add(cfg.Execution.Workers)
	for i := 0; i < cfg.Execution.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// quota is tenant's waiting-room bound.
func (s *Server) quota(tenant string) int {
	if t, ok := s.cfg.Admission.Tenants[tenant]; ok && t.QueueDepth > 0 {
		return t.QueueDepth
	}
	return s.cfg.Admission.QueueDepth
}

// weight is tenant's DRR quantum (fairq clamps to ≥ 1).
func (s *Server) weight(tenant string) int {
	if t, ok := s.cfg.Admission.Tenants[tenant]; ok && t.Weight > 0 {
		return t.Weight
	}
	return 1
}

// tenantLocked returns (creating if needed) tenant's stats; mu held.
func (s *Server) tenantLocked(tenant string) *tenantStats {
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[tenant] = ts
	}
	return ts
}

// Do submits one request and blocks until it is answered or shed. Every
// call produces exactly one response — admission control refuses work
// with a "shed" response, it never drops a request silently. Do must not
// be called after Close.
func (s *Server) Do(req Request) report.ServiceResponse {
	kind := req.ResolvedKind()
	resp := report.ServiceResponse{ID: req.ID, Kind: kind, Tenant: req.Tenant, Status: "shed"}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	if err := req.validate(); err != nil {
		resp.Status = "error"
		resp.Error = err.Error()
		resp.Invalid = true
		s.mu.Lock()
		s.received++
		s.tenantLocked(tenant).received++
		s.countLocked(resp, tenant)
		s.mu.Unlock()
		return resp
	}
	deadline := req.Deadline
	if deadline == 0 {
		deadline = s.cfg.Admission.Timeout
	}
	high := req.Priority != "low"

	s.mu.Lock()
	s.received++
	s.tenantLocked(tenant).received++
	if s.closed {
		resp.Status = "error"
		resp.Error = "service: closed"
		s.countLocked(resp, tenant)
		s.mu.Unlock()
		return resp
	}
	var evicted *job
	var evictedResp report.ServiceResponse
	switch {
	case s.q.TenantLen(tenant) < s.quota(tenant) || s.inflight+s.q.Len() < s.cfg.Execution.Workers:
		// Room in this tenant's queue, or the pool itself is not full
		// (a zero-quota tenant may still hand work to an idle worker).
	case high && s.q.LowLen(tenant) > 0:
		// Shed low before high: displace this tenant's newest queued
		// low-priority request to admit the high-priority one.
		evicted, _ = s.q.EvictLow(tenant)
		waited := s.now().Sub(evicted.arrival).Seconds()
		evictedResp = report.ServiceResponse{
			ID: evicted.req.ID, Kind: evicted.req.ResolvedKind(), Tenant: evicted.req.Tenant,
			Status: "shed", Error: "service: displaced by higher-priority work",
			QueueSeconds: waited, WallSeconds: waited,
		}
		s.countLocked(evictedResp, evicted.tenant)
	default:
		s.countLocked(resp, tenant)
		s.mu.Unlock()
		return resp
	}
	band := fairq.High
	if !high {
		band = fairq.Low
	}
	j := &job{req: req, tenant: tenant, deadline: deadline,
		arrival: s.now(), done: make(chan report.ServiceResponse, 1)}
	s.q.Push(tenant, band, j)
	s.cond.Signal()
	s.mu.Unlock()

	if evicted != nil {
		evicted.done <- evictedResp
	}
	return <-j.done
}

// Close drains the queues, stops the workers and waits for in-flight
// requests. Concurrent Do calls that lost the race get error responses
// rather than panics; callers should stop submitting first.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.q.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		j, ok := s.q.Pop()
		if !ok { // closed and drained
			s.mu.Unlock()
			return
		}
		s.inflight++
		s.mu.Unlock()
		s.serve(j)
	}
}

// serve runs one dequeued job and answers it, freeing the worker slot.
func (s *Server) serve(j *job) {
	// A request whose queue wait already blew its deadline is answered
	// without launching: under overload the service sheds stale work
	// first and spends workers on requests whose answers someone is
	// still waiting for.
	waited := s.now().Sub(j.arrival).Seconds()
	if j.deadline > 0 && waited > j.deadline {
		resp := report.ServiceResponse{ID: j.req.ID, Kind: j.req.ResolvedKind(), Tenant: j.req.Tenant,
			Status: "deadline",
			Error:  fmt.Sprintf("service: deadline (%gs) exceeded after %.3fs in queue", j.deadline, waited)}
		resp.QueueSeconds = waited
		resp.WallSeconds = waited
		s.answer(j, resp)
		return
	}
	resp := s.handle(j)
	resp.QueueSeconds = waited
	resp.WallSeconds = s.now().Sub(j.arrival).Seconds()
	s.answer(j, resp)
}

// handle executes one admitted request.
func (s *Server) handle(j *job) report.ServiceResponse {
	req := j.req
	resp := report.ServiceResponse{ID: req.ID, Kind: req.ResolvedKind(), Tenant: req.Tenant}
	fail := func(err error, invalid bool) report.ServiceResponse {
		resp.Status = "error"
		resp.Error = err.Error()
		resp.Invalid = invalid
		return resp
	}
	switch resp.Kind {
	case "join":
		jr := req.join()
		spec, err := jr.Spec()
		if err != nil {
			return fail(err, true)
		}
		s.mu.Lock()
		v, ok := s.memo[jr]
		s.mu.Unlock()
		if ok {
			resp.Status = "ok"
			resp.Cache = "hit"
			resp.Seconds = v.seconds
			resp.Joules = v.joules
			return resp
		}
		c, err := s.mk()
		if err != nil {
			return fail(err, false)
		}
		res, joules, hit, err := s.cache.RunJoinHit(c, s.cfg.Execution.Engine, spec)
		if err != nil {
			return fail(err, false)
		}
		resp.Status = "ok"
		resp.Cache = "miss"
		if hit {
			resp.Cache = "hit"
		}
		resp.Seconds = res.Seconds
		resp.Joules = joules
		s.mu.Lock()
		s.memo[jr] = memoVal{seconds: res.Seconds, joules: joules}
		s.mu.Unlock()
		return resp
	case "design":
		d := req.design()
		s.mu.Lock()
		m, ok := s.memoDesign[d]
		s.mu.Unlock()
		if ok {
			m.ID = req.ID
			m.Tenant = req.Tenant
			return m
		}
		adv, err := s.design(d)
		if err != nil {
			return fail(err, true)
		}
		resp.Status = "ok"
		resp.Design = adv.Best.Label()
		resp.Seconds = adv.Best.Seconds
		resp.Joules = adv.Best.Joules
		s.mu.Lock()
		s.memoDesign[d] = resp
		s.mu.Unlock()
		return resp
	default:
		return fail(fmt.Errorf("service: unknown request kind %q (want join or design)", req.Kind), true)
	}
}

// design answers a cluster-design request with the analytical model.
func (s *Server) design(d DesignRequest) (core.Advice, error) {
	buildGB, probeGB := d.BuildGB, d.ProbeGB
	if buildGB == 0 {
		buildGB = 700
	}
	if probeGB == 0 {
		probeGB = 2800
	}
	nodes := d.Nodes
	if nodes == 0 {
		nodes = 8
	}
	target := d.Target
	if target == 0 {
		target = 0.6
	}
	bsel, psel := d.BuildSel, d.ProbeSel
	if bsel == 0 {
		bsel = 0.1
	}
	if psel == 0 {
		psel = 0.1
	}
	switch {
	case !(buildGB > 0) || math.IsInf(buildGB, 0) || !(probeGB > 0) || math.IsInf(probeGB, 0):
		return core.Advice{}, fmt.Errorf("service: table sizes must be positive, finite GB, got build=%v probe=%v", d.BuildGB, d.ProbeGB)
	case nodes < 1 || nodes > 256:
		return core.Advice{}, fmt.Errorf("service: nodes must be in [1,256], got %d", d.Nodes)
	case !(target > 0 && target <= 1):
		return core.Advice{}, fmt.Errorf("service: target must be in (0,1], got %v", d.Target)
	case !(bsel > 0 && bsel <= 1) || !(psel > 0 && psel <= 1):
		return core.Advice{}, fmt.Errorf("service: selectivities must be in (0,1], got build=%v probe=%v", d.BuildSel, d.ProbeSel)
	}
	base := model.FromSpecs(nodes, hw.ClusterV(), 0, hw.WimpyModelNode())
	base.Bld = buildGB * 1000
	base.Prb = probeGB * 1000
	base.Sbld, base.Sprb = bsel, psel
	// Design under the same cache regime the service's joins simulate,
	// so the recommendation sizes the workload it actually serves.
	base.WarmCache = s.cfg.Execution.Engine.WarmCache
	des := core.Designer{Base: base, MaxNodes: nodes}
	return des.Recommend(target)
}

// answer folds a worker's finished job into the aggregates and frees its
// worker slot in the same critical section, then hands the response to
// the caller. Freeing the slot before the send matters: a caller whose
// next Do follows its answer must find the worker idle, or a zero-quota
// tenant is shed by an idle service.
func (s *Server) answer(j *job, r report.ServiceResponse) {
	s.mu.Lock()
	s.countLocked(r, j.tenant)
	s.inflight--
	s.mu.Unlock()
	j.done <- r
}

// countLocked folds one finished (or refused) response into the
// aggregates; s.mu is held. The caller has already booked received
// (admission counts every submission exactly once).
func (s *Server) countLocked(r report.ServiceResponse, tenant string) {
	ts := s.tenantLocked(tenant)
	switch r.Status {
	case "ok":
		s.ok++
		s.respSum += r.WallSeconds
		s.respMax = math.Max(s.respMax, r.WallSeconds)
		s.wallHist.Observe(r.WallSeconds)
		ts.ok++
		ts.respSum += r.WallSeconds
		ts.respMax = math.Max(ts.respMax, r.WallSeconds)
		ts.wall.Observe(r.WallSeconds)
		ts.queue.Observe(r.QueueSeconds)
		if r.Kind == "join" {
			s.okJoins++
			s.joules += r.Joules
		}
	case "shed":
		s.shed++
		ts.shed++
	case "deadline":
		s.deadline++
		ts.deadline++
		ts.queue.Observe(r.QueueSeconds)
	default:
		s.errs++
		ts.errs++
		if r.WallSeconds > 0 {
			ts.queue.Observe(r.QueueSeconds)
		}
	}
	switch r.Cache {
	case "hit":
		s.hits++
		ts.hits++
	case "miss":
		s.misses++
		ts.misses++
	}
}

// Metrics returns an aggregate snapshot with the per-tenant breakdown.
// It is available while the service runs (a {"kind":"metrics"} line or
// GET /metrics in cmd/serve) and is the shutdown report.
func (s *Server) Metrics() report.ServiceMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := report.ServiceMetrics{
		Received:    s.received,
		OK:          s.ok,
		Shed:        s.shed,
		Errors:      s.errs,
		Deadline:    s.deadline,
		CacheHits:   s.hits,
		CacheMisses: s.misses,
		WallSeconds: s.now().Sub(s.start).Seconds(),
		MaxResponse: s.respMax,
		P50:         s.wallHist.Quantile(0.50),
		P95:         s.wallHist.Quantile(0.95),
		P99:         s.wallHist.Quantile(0.99),
		TotalJoules: s.joules,
	}
	if s.ok > 0 {
		m.MeanResponse = s.respSum / float64(s.ok)
	}
	if s.okJoins > 0 {
		m.JoulesPerQuery = s.joules / float64(s.okJoins)
	}
	if m.WallSeconds > 0 {
		m.Throughput = float64(s.ok) / m.WallSeconds
	}
	if len(s.tenants) > 0 {
		m.Tenants = make(map[string]report.TenantMetrics, len(s.tenants))
		for name, ts := range s.tenants {
			tm := report.TenantMetrics{
				Received:    ts.received,
				OK:          ts.ok,
				Shed:        ts.shed,
				Errors:      ts.errs,
				Deadline:    ts.deadline,
				CacheHits:   ts.hits,
				CacheMisses: ts.misses,
				MaxResponse: ts.respMax,
				P50:         ts.wall.Quantile(0.50),
				P95:         ts.wall.Quantile(0.95),
				P99:         ts.wall.Quantile(0.99),
				QueueP50:    ts.queue.Quantile(0.50),
				QueueP99:    ts.queue.Quantile(0.99),
			}
			if ts.ok > 0 {
				tm.MeanResponse = ts.respSum / float64(ts.ok)
			}
			m.Tenants[name] = tm
		}
	}
	return m
}
