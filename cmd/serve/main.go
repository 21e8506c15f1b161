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
//	serve -timeout 5               default per-request deadline in seconds
//	serve -nodes 8 -warm=false     per-request simulated cluster and engine config
//
// Serving performance is measured by the benchmark/ module's serve_miss,
// serve_hit and serve_flood workloads.
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
// still accepted, and answered byte-identically.
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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pstore"
	"repro/internal/report"
	"repro/internal/service"
)

func main() {
	var (
		workers  = flag.Int("workers", 4, "max in-flight requests (worker pool size)")
		queue    = flag.Int("queue", 64, "per-tenant admission queue quota (0 = no waiting room); a tenant past its quota is shed, other tenants are unaffected")
		tenants  = flag.String("tenants", "", "per-tenant overrides, 'name=depth[:weight],...' — depth is the queue quota, weight the fair-queueing share (both default to the service-wide values)")
		nodes    = flag.Int("nodes", 4, "nodes in the per-request simulated cluster")
		warm     = flag.Bool("warm", true, "working set cached (scan at CPU rate)")
		timeout  = flag.Float64("timeout", 0, "default per-request deadline in seconds (0 = none), overridden per request by deadline_s")
		httpAddr = flag.String("http", "", "serve HTTP on this address instead of reading stdin")
	)
	flag.Parse()

	switch {
	case *timeout < 0 || math.IsNaN(*timeout) || math.IsInf(*timeout, 0):
		fatalf("serve: -timeout must be a positive, finite number of seconds (0 = none), got %v", *timeout)
	case *workers < 1:
		fatalf("serve: -workers must be at least 1, got %d", *workers)
	case *queue < 0:
		fatalf("serve: -queue must not be negative, got %d", *queue)
	case *nodes < 1:
		fatalf("serve: -nodes must be at least 1, got %d", *nodes)
	}
	tenantCfg, err := parseTenants(*tenants)
	if err != nil {
		fatalf("serve: %v", err)
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
			Engine:       pstore.Config{WarmCache: *warm, BatchRows: 200_000},
		},
	}
	s, err := service.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	if *httpAddr != "" {
		serveHTTP(s, *httpAddr)
	} else {
		serveStdin(s)
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

// serveStdin answers one JSON request per input line until EOF.
// Responses appear in completion order, one JSON line each.
func serveStdin(s *service.Server) {
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
		req, err := service.Decode([]byte(line), true)
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
func newMux(s *service.Server) *http.ServeMux {
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
		req, err := service.Decode(body, true)
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
func serveHTTP(s *service.Server, addr string) {
	srv := &http.Server{Addr: addr, Handler: newMux(s)}
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
