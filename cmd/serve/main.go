// Command serve is the long-running multi-tenant workload-stream
// service: it accepts a stream of join/design requests in the versioned
// v1 envelope, admits them against per-tenant quotas, schedules them
// with deficit-round-robin fair queueing and two-level priorities over a
// bounded worker pool, and answers repeated identical joins from a
// shared in-memory cache (internal/service).
//
// Usage:
//
//	serve                          read JSON requests from stdin, one per line
//	serve -http :8080              serve HTTP instead (POST /, GET /metrics)
//	serve -workers 8 -queue 64     pool size and per-tenant queue quota
//	serve -tenants 'dash=128:2,batch=16'   per-tenant quota:weight overrides
//	serve -window 30               batch launches on 30 s window boundaries
//	serve -timeout 5 -retries 2    default deadline and retry budget
//	serve -nodes 8 -warm=false     per-request simulated cluster and engine config
//	serve -compat=false            reject pre-envelope flat requests
//	serve -load                    synthetic load harness (1M requests, 4 tenants)
//	serve -load -load-trace t.jsonl -load-speedup 10   replay a recorded trace 10x
//	serve -load -load-dump t.jsonl                     write the synthetic trace and exit
//
// The load harness prints a per-tenant latency and shed report; it is a
// functional check, not a benchmark. Serving performance is measured by
// the benchmark/ module's serve_miss, serve_hit and serve_flood workloads.
//
// Request format (one JSON object per line, strict — unknown fields are
// errors naming the field):
//
//	{"v":1,"id":"q1","tenant":"dash","priority":"low","deadline_s":5,
//	 "join":{"sf":10,"build_sel":0.05,"probe_sel":0.05,"method":"dual-shuffle"}}
//	{"v":1,"id":"d1","design":{"build_gb":700,"probe_gb":2800,"nodes":8,"target":0.6}}
//	{"kind":"metrics"}
//
// The pre-envelope flat form ({"id":"q1","sf":10,...}) is deprecated but
// still accepted (and answered byte-identically) while -compat is on.
//
// Responses are one JSON line each, in completion order, correlated by
// id: per-request latency and joules, cache hit/miss, and the status
// admission control assigned ("ok", "shed", "deadline", or "error" — a
// shed or expired request is answered, never dropped). HTTP mode maps
// status to codes: ok 200, shed 429 (with Retry-After), deadline 504,
// invalid request 400, failed run 500. A {"kind":"metrics"} line (or GET
// /metrics) emits the aggregate metrics with the per-tenant breakdown;
// the final aggregate is written to stderr on shutdown.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pstore"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/service"
)

func main() {
	var (
		workers   = flag.Int("workers", 4, "max in-flight requests (worker pool size)")
		queue     = flag.Int("queue", 64, "per-tenant admission queue quota (0 = no waiting room); a tenant past its quota is shed, other tenants are unaffected")
		tenants   = flag.String("tenants", "", "per-tenant overrides, 'name=depth[:weight],...' — depth is the queue quota, weight the fair-queueing share (both default to the service-wide values)")
		window    = flag.Float64("window", 0, "batched release window in seconds (0 = launch immediately)")
		nodes     = flag.Int("nodes", 4, "nodes in the per-request simulated cluster")
		warm      = flag.Bool("warm", true, "working set cached (scan at CPU rate)")
		batchRows = flag.Int("batch-rows", 200_000, "engine exchange batch size in rows")
		cache     = flag.Bool("cache", true, "answer repeated identical joins from memory")
		timeout   = flag.Float64("timeout", 0, "default per-request deadline in seconds (0 = none), overridden per request by deadline_s")
		retries   = flag.Int("retries", 0, "retry budget per failed join request; retries are shed before fresh work")
		compat    = flag.Bool("compat", true, "accept deprecated pre-envelope flat requests (answered byte-identically)")
		httpAddr  = flag.String("http", "", "serve HTTP on this address instead of reading stdin")

		load         = flag.Bool("load", false, "run the load harness instead of serving: replay a trace (or a synthetic one) against this process's service and report per-tenant latency")
		loadRequests = flag.Int("load-requests", 1_000_000, "synthetic trace length for -load")
		loadTenants  = flag.String("load-tenants", "4", "synthetic tenants for -load: a count (first is the hot one) or comma-separated names")
		loadHot      = flag.Float64("load-hot", 0.8, "share of synthetic requests sent by the hot (first) tenant")
		loadSeed     = flag.Int64("load-seed", 1, "seed for the synthetic trace (same seed, same trace)")
		loadTrace    = flag.String("load-trace", "", "replay this JSONL trace instead of generating one")
		loadSpeedup  = flag.Float64("load-speedup", 0, "replay speed: 1 = real time, 10 = 10x, <= 0 = flood (as fast as the service answers)")
		loadInflight = flag.Int("load-inflight", 256, "concurrent submissions the harness keeps in flight")
		loadDump     = flag.String("load-dump", "", "write the synthetic trace to this file and exit (for committing fixed traces)")
	)
	flag.Parse()

	switch {
	case *window < 0 || math.IsNaN(*window) || math.IsInf(*window, 0):
		fatalf("serve: -window must be a non-negative, finite number, got %v", *window)
	case *timeout < 0 || math.IsNaN(*timeout) || math.IsInf(*timeout, 0):
		fatalf("serve: -timeout must be a positive, finite number of seconds (0 = none), got %v", *timeout)
	case *retries < 0:
		fatalf("serve: -retries must not be negative, got %d", *retries)
	case *workers < 1:
		fatalf("serve: -workers must be at least 1, got %d", *workers)
	case *queue < 0:
		fatalf("serve: -queue must not be negative, got %d", *queue)
	case *nodes < 1:
		fatalf("serve: -nodes must be at least 1, got %d", *nodes)
	case *loadInflight < 1:
		fatalf("serve: -load-inflight must be at least 1, got %d", *loadInflight)
	case *loadRequests < 1:
		fatalf("serve: -load-requests must be at least 1, got %d", *loadRequests)
	case *loadHot < 0 || *loadHot > 1 || math.IsNaN(*loadHot):
		fatalf("serve: -load-hot must be in [0,1], got %v", *loadHot)
	}
	tenantCfg, err := parseTenants(*tenants)
	if err != nil {
		fatalf("serve: %v", err)
	}

	if *loadDump != "" {
		names, err := loadTenantNames(*loadTenants)
		if err != nil {
			fatalf("serve: %v", err)
		}
		events := replay.Synthetic(*loadRequests, names, *loadHot, *loadSeed)
		f, err := os.Create(*loadDump)
		if err != nil {
			fatalf("serve: %v", err)
		}
		if err := replay.WriteTrace(f, events); err != nil {
			fatalf("serve: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("serve: %v", err)
		}
		fmt.Fprintf(os.Stderr, "serve: wrote %d events to %s\n", len(events), *loadDump)
		return
	}

	cfg := service.Config{
		Admission: service.Admission{
			QueueDepth: *queue,
			Tenants:    tenantCfg,
			Timeout:    *timeout,
		},
		Execution: service.Execution{
			Workers:      *workers,
			ClusterNodes: *nodes,
			Engine:       pstore.Config{WarmCache: *warm, BatchRows: *batchRows},
			RetryBudget:  *retries,
		},
	}
	if *window > 0 {
		cfg.Execution.Policy = sched.Batched{Window: *window}
	}
	if !*cache {
		cfg.Execution.Runner = pstore.Engine{}
	}
	s, err := service.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *load || *loadTrace != "":
		err = runLoad(s, loadOpts{
			requests: *loadRequests, tenants: *loadTenants, hot: *loadHot,
			seed: *loadSeed, trace: *loadTrace, speedup: *loadSpeedup,
			inflight: *loadInflight,
		})
		if err != nil {
			s.Close()
			fatalf("serve: %v", err)
		}
	case *httpAddr != "":
		serveHTTP(s, *httpAddr, *compat)
	default:
		serveStdin(s, *compat)
	}

	s.Close()
	if err := report.WriteServiceMetrics(os.Stderr, s.Metrics()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// parseTenants parses 'name=depth[:weight],...'.
func parseTenants(s string) (map[string]service.Tenant, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]service.Tenant)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok || name == "" || spec == "" {
			return nil, fmt.Errorf("-tenants entry %q: want name=depth or name=depth:weight", part)
		}
		depthStr, weightStr, hasWeight := strings.Cut(spec, ":")
		t := service.Tenant{}
		d, err := strconv.Atoi(depthStr)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("-tenants entry %q: depth must be a non-negative integer", part)
		}
		t.QueueDepth = d
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("-tenants entry %q: weight must be a positive integer", part)
			}
			t.Weight = w
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-tenants names %q twice", name)
		}
		out[name] = t
	}
	return out, nil
}

// loadTenantNames resolves -load-tenants: a count ("4" -> hot, t1..t3)
// or explicit comma-separated names (first is hot).
func loadTenantNames(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("-load-tenants count must be at least 1, got %d", n)
		}
		names := []string{"hot"}
		for i := 1; i < n; i++ {
			names = append(names, fmt.Sprintf("t%d", i))
		}
		return names, nil
	}
	var names []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-load-tenants has an empty name in %q", s)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-load-tenants is empty")
	}
	return names, nil
}

type loadOpts struct {
	requests int
	tenants  string
	hot      float64
	seed     int64
	trace    string
	speedup  float64
	inflight int
}

// runLoad replays a trace (recorded or synthetic) against the service
// and prints a per-tenant latency/shed summary. The trace feeder is
// internal/replay (deterministic, paced by the injected process clock);
// the harness fans submissions out over opts.inflight dispatchers so
// admission control, not the harness, is the bottleneck.
func runLoad(s *service.Server, opts loadOpts) error {
	var events []replay.Event
	if opts.trace != "" {
		f, err := os.Open(opts.trace)
		if err != nil {
			return err
		}
		events, err = replay.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		names, err := loadTenantNames(opts.tenants)
		if err != nil {
			return err
		}
		events = replay.Synthetic(opts.requests, names, opts.hot, opts.seed)
	}

	reqs := make(chan service.Request, opts.inflight)
	var wg sync.WaitGroup
	for i := 0; i < opts.inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				s.Do(r)
			}
		}()
	}

	start := time.Now()
	clock := replay.Clock{
		Now:   func() float64 { return time.Since(start).Seconds() },
		Sleep: func(sec float64) { time.Sleep(time.Duration(sec * float64(time.Second))) },
	}
	n := replay.Run(events, clock, opts.speedup, func(r service.Request) { reqs <- r })
	close(reqs)
	wg.Wait()
	wall := time.Since(start).Seconds()

	m := s.Metrics()
	fmt.Printf("load: requests=%d wall_s=%.3f rate_per_s=%.0f ok=%d shed=%d deadline=%d errors=%d cache_hits=%d cache_misses=%d p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f\n",
		n, wall, float64(n)/wall, m.OK, m.Shed, m.Deadline, m.Errors,
		m.CacheHits, m.CacheMisses, m.P50*1000, m.P95*1000, m.P99*1000)
	names := make([]string, 0, len(m.Tenants))
	for name := range m.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tm := m.Tenants[name]
		fmt.Printf("tenant %s: received=%d ok=%d shed=%d deadline=%d errors=%d p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f queue_p50_ms=%.3f queue_p99_ms=%.3f\n",
			name, tm.Received, tm.OK, tm.Shed, tm.Deadline, tm.Errors,
			tm.P50*1000, tm.P95*1000, tm.P99*1000, tm.QueueP50*1000, tm.QueueP99*1000)
	}
	return nil
}

// serveStdin answers one JSON request per input line until EOF.
// Responses appear in completion order, one JSON line each.
func serveStdin(s *service.Server, compat bool) {
	var outMu sync.Mutex
	emit := func(r report.ServiceResponse) {
		outMu.Lock()
		defer outMu.Unlock()
		if err := report.WriteServiceResponse(os.Stdout, r); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	var wg sync.WaitGroup
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := service.Decode([]byte(line), compat)
		if err != nil {
			emit(report.ServiceResponse{ID: req.ID, Kind: "request", Tenant: req.Tenant,
				Status: "error", Error: err.Error(), Invalid: true})
			continue
		}
		if req.Kind == "metrics" {
			outMu.Lock()
			if err := report.WriteServiceMetrics(os.Stdout, s.Metrics()); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			outMu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			emit(s.Do(req))
		}()
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	wg.Wait()
}

// newMux builds the HTTP surface: POST / (one request per body) and GET
// /metrics. Status mapping: ok 200; shed 429 with Retry-After; deadline
// 504; invalid request 400; failed run 500.
func newMux(s *service.Server, compat bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a request object", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := service.Decode(body, compat)
		var resp report.ServiceResponse
		if err != nil {
			resp = report.ServiceResponse{ID: req.ID, Kind: "request", Tenant: req.Tenant,
				Status: "error", Error: err.Error(), Invalid: true}
		} else {
			resp = s.Do(req)
		}
		w.Header().Set("Content-Type", "application/json")
		switch {
		case resp.Status == "ok":
			w.WriteHeader(http.StatusOK)
		case resp.Status == "shed":
			// Admission refused this request (quota or displacement);
			// the client may retry after backing off.
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case resp.Status == "deadline":
			w.WriteHeader(http.StatusGatewayTimeout)
		case resp.Invalid:
			w.WriteHeader(http.StatusBadRequest)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
		if err := report.WriteServiceResponse(w, resp); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := report.WriteServiceMetrics(w, s.Metrics()); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	})
	return mux
}

// serveHTTP serves newMux on addr until SIGINT/SIGTERM.
func serveHTTP(s *service.Server, addr string, compat bool) {
	srv := &http.Server{Addr: addr, Handler: newMux(s, compat)}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", addr)
	select {
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}
