package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/report"
	"repro/internal/service"
)

// mix64 is the splitmix64 finaliser: request i of seed s is a pure
// function of (s, i), so any client may build any request and the same
// seed always sends the same bytes.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed int64, i int, stream uint64) uint64 {
	return mix64(mix64(uint64(seed)) ^ uint64(i)*0x9e3779b97f4a7c15 + stream)
}

// selGrid is the number of selectivity values on the 1e-7 grid between
// 1% and 10%; selStep walks it as a bijection, so the first selGrid
// requests of a seed have pairwise distinct build selectivities and can
// never share a memo entry.
const (
	selGrid = 900_000
	selStep = 2654435761 // prime, coprime to selGrid
)

var (
	joinSFs     = [3]int{5, 10, 20}
	joinMethods = [3]string{"dual-shuffle", "broadcast", "prepartitioned"}
)

// joinParams is the seeded join payload of request i: scale factor and
// plan rotate, selectivities sit on the 1e-7 grid.
func joinParams(seed int64, i int) string {
	build := 0.01 + float64((uint64(i)*selStep+draw(seed, 0, 1)%selGrid)%selGrid)*1e-7
	probe := 0.01 + float64(draw(seed, i, 2)%selGrid)*1e-7
	return fmt.Sprintf(`{"sf":%d,"build_sel":%.7f,"probe_sel":%.7f,"method":%q}`,
		joinSFs[i%3], build, probe, joinMethods[(i/3)%3])
}

// envelope wraps a join payload for request i: four tenants, a quarter
// of the requests low priority.
func envelope(seed int64, i int, idPrefix, join string) []byte {
	priority := ""
	if draw(seed, i, 3)%4 == 0 {
		priority = `,"priority":"low"`
	}
	return []byte(fmt.Sprintf(`{"v":1,"id":"%s-%d","tenant":"t%d"%s,"join":%s}`,
		idPrefix, i, draw(seed, i, 4)%4, priority, join))
}

// missBody is request i of serve_miss: a spec no earlier request had.
func missBody(seed int64, i int) []byte { return envelope(seed, i, "m", joinParams(seed, i)) }

// hitSpecs is the size of serve_hit's working set: sixteen seeded specs,
// each answered once (a miss) during set-up.
const hitSpecs = 16

// hitJoin is spec number spec of the working set, drawn from a stream of
// its own so it shares nothing with serve_miss at the same seed.
func hitJoin(seed int64, spec int) string { return joinParams(seed^0x5eed, spec) }

// hitBody is request i of serve_hit: one of the warmed specs.
func hitBody(seed int64, i int) (body []byte, spec int) {
	spec = int(draw(seed, i, 5) % hitSpecs)
	return envelope(seed, i, "h", hitJoin(seed, spec)), spec
}

// answer is the part of a response that must be reproducible.
type answer struct{ seconds, joules float64 }

// serveInstance is serve_miss or serve_hit: a cmd/serve process and the
// closed-loop HTTP callers that drive it.
type serveInstance struct {
	e      env
	hit    bool
	srv    *serveProc
	client *http.Client
	next   atomic.Int64 // index of the next request; never reused, so a miss stays a miss
	warmed int64        // requests sent during set-up
	// want is, for serve_hit, the answer each spec got when warmed.
	want [hitSpecs]answer
	// got keeps the first answers of serve_miss for the in-process check.
	mu  sync.Mutex
	got map[int]answer
	// rssAfter is the request count at which the server's peak resident
	// set is read. The memo only grows, so memory read at the end of a
	// timed run would rise with throughput; read at a fixed count it
	// follows bytes per answered request instead.
	rssAfter int
	rssMB    float64
}

const verifiedMisses = 64

func setupServeMiss(e env) (instance, error) { return setupServe(e, "serve_miss", false) }
func setupServeHit(e env) (instance, error)  { return setupServe(e, "serve_hit", true) }

// setupServe starts the server, waits for GET /metrics and warms it: one
// request outside the measured grid for serve_miss (lazy initialisation
// is paid before timing), the sixteen specs for serve_hit.
func setupServe(e env, name string, hit bool) (instance, error) {
	srv, err := startServe(e.root, e.clients, filepath.Join(e.out, name+".stderr"))
	if err != nil {
		return nil, err
	}
	s := &serveInstance{e: e, hit: hit, srv: srv, got: make(map[int]answer),
		rssAfter: e.scaled(2_000, 20),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: e.clients, MaxIdleConnsPerHost: e.clients, DisableCompression: true}}}
	warm := [][]byte{[]byte(`{"v":1,"id":"warm","join":{"sf":1}}`)}
	if hit {
		s.rssAfter = e.scaled(20_000, 200)
		warm = warm[:0]
		for spec := 0; spec < hitSpecs; spec++ {
			warm = append(warm, envelope(e.seed, spec, "w", hitJoin(e.seed, spec)))
		}
	}
	for i, body := range warm {
		r := s.post(body)
		if r.err != nil || r.resp.Cache != "miss" {
			s.close()
			return nil, fmt.Errorf("%s: warm-up request %d: %v (status %q, cache %q)", name, i, r.err, r.resp.Status, r.resp.Cache)
		}
		if hit {
			s.want[i] = answer{r.resp.Seconds, r.resp.Joules}
		}
		s.warmed++
	}
	return s, nil
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	start, end time.Time
	resp       report.ServiceResponse
	err        error // transport failure, non-200, or a body that is not a response
}

func (s *serveInstance) post(body []byte) reply {
	r := reply{start: time.Now()}
	resp, err := s.client.Post(s.srv.url+"/", "application/json", bytes.NewReader(body))
	if err != nil {
		r.end, r.err = time.Now(), err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	switch {
	case err != nil:
		r.err = err
	case json.Unmarshal(b, &r.resp) != nil:
		r.err = fmt.Errorf("HTTP %d with an undecodable body %.80q", resp.StatusCode, b)
	case resp.StatusCode != http.StatusOK || r.resp.Status != "ok":
		r.err = fmt.Errorf("HTTP %d, status %q: %s", resp.StatusCode, r.resp.Status, r.resp.Error)
	}
	return r
}

// wireSample is what one request contributes to the latency split.
type wireSample struct{ client, queue, wall float64 }

func (s *serveInstance) measure(d time.Duration, tr *tracer, parent int) measurement {
	begin := time.Now()
	return s.drive(func(int) bool { return time.Since(begin) < d }, tr, parent)
}

// measureN sends exactly n requests (the wire probe's fixed session).
func (s *serveInstance) measureN(n int) measurement {
	last := int(s.next.Load()) + n
	return s.drive(func(i int) bool { return i < last }, nil, 0)
}

// drive runs the closed loop: each client claims the next request index
// and sends it while more(index) holds.
func (s *serveInstance) drive(more func(i int) bool, tr *tracer, parent int) measurement {
	var m measurement
	samples := make([][]wireSample, s.e.clients)
	var mu sync.Mutex // guards m's failure bookkeeping
	cpu0, _ := procCPUSeconds(s.srv.pid())
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(s.next.Add(1) - 1)
				if !more(i) {
					s.next.Add(-1) // claimed but never sent
					return
				}
				var body []byte
				spec := -1
				if s.hit {
					body, spec = hitBody(s.e.seed, i)
				} else {
					body = missBody(s.e.seed, i)
				}
				r := s.post(body)
				why := s.checkReply(i, spec, r)
				samples[c] = append(samples[c], wireSample{r.end.Sub(r.start).Seconds(), r.resp.QueueSeconds, r.resp.WallSeconds})
				if why != "" {
					mu.Lock()
					m.fail("request %d: %s", i, why)
					mu.Unlock()
				}
				if i+1 == s.rssAfter {
					s.rssMB, _ = procStatusMB(s.srv.pid(), "VmHWM") // 0 falls back to the reading at the end
				}
				if tr != nil && i%100 == 0 {
					s.traceRequest(tr, parent, c+1, r)
				}
			}
		}(c)
	}
	wg.Wait()
	m.wall = time.Since(begin)
	cpu1, _ := procCPUSeconds(s.srv.pid())

	var queue, run, overhead []float64
	for _, cs := range samples {
		for _, w := range cs {
			m.latencies = append(m.latencies, w.client)
			queue = append(queue, w.queue*1e6)
			run = append(run, (w.wall-w.queue)*1e6)
			overhead = append(overhead, (w.client-w.wall)*1e6)
		}
	}
	m.attempted += len(m.latencies)
	sort.Float64s(queue)
	sort.Float64s(run)
	sort.Float64s(overhead)
	m.detail = map[string]float64{
		"service.queue_us_p50":          percentile(queue, 50),
		"service.queue_us_p99":          percentile(queue, 99),
		"service.run_us_p50":            percentile(run, 50),
		"http.overhead_us_p50":          percentile(overhead, 50),
		"http.overhead_us_p99":          percentile(overhead, 99),
		"service.server_cpu_us_per_req": (cpu1 - cpu0) * 1e6 / float64(len(m.latencies)),
	}
	return m
}

// checkReply applies the per-response checks and returns the reason for
// a failure, or "".
func (s *serveInstance) checkReply(i, spec int, r reply) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case s.hit && r.resp.Cache != "hit":
		return fmt.Sprintf("cache %q, want hit", r.resp.Cache)
	case s.hit && (answer{r.resp.Seconds, r.resp.Joules}) != s.want[spec]:
		return fmt.Sprintf("answer %v s / %v J differs from the first answer for spec %d", r.resp.Seconds, r.resp.Joules, spec)
	case !s.hit && r.resp.Cache != "miss":
		return fmt.Sprintf("cache %q, want miss", r.resp.Cache)
	}
	if !s.hit && i < verifiedMisses {
		s.mu.Lock()
		s.got[i] = answer{r.resp.Seconds, r.resp.Joules}
		s.mu.Unlock()
	}
	return ""
}

// traceRequest records a sampled request and, inside it, the queue/run
// split the server reported (centred: the wire time before and after the
// server's interval cannot be told apart from outside).
func (s *serveInstance) traceRequest(tr *tracer, parent, lane int, r reply) {
	id := tr.add(parent, "http", "POST /", lane, r.start, r.end, false)
	wall := time.Duration(r.resp.WallSeconds * float64(time.Second))
	queue := time.Duration(r.resp.QueueSeconds * float64(time.Second))
	at := r.start.Add((r.end.Sub(r.start) - wall) / 2)
	tr.add(id, "service", "queue", lane, at, at.Add(queue), true)
	layer, name := "pstore", "engine run"
	if s.hit {
		layer, name = "service", "memo answer"
	}
	tr.add(id, layer, name, lane, at.Add(queue), at.Add(wall), true)
}

// verify checks what no single response shows: the server's own counters
// against what was sent (memo hit ratio exactly 0 for serve_miss, every
// measured request a hit for serve_hit, nothing shed or failed), and for
// serve_miss the first answers against an in-process engine run of the
// same spec on the same cluster.
func (s *serveInstance) verify(m *measurement) {
	sm, err := s.metrics()
	if err != nil {
		m.note("GET /metrics: %v", err)
		return
	}
	sent := s.next.Load()
	wantHits, wantMisses := int64(0), sent+s.warmed
	if s.hit {
		wantHits, wantMisses = sent, s.warmed
	}
	if sm.Received != sent+s.warmed || sm.OK != sm.Received || sm.Shed+sm.Errors+sm.Deadline != 0 {
		m.note("server counted received=%d ok=%d shed=%d errors=%d deadline=%d, sent %d", sm.Received, sm.OK, sm.Shed, sm.Errors, sm.Deadline, sent+s.warmed)
	}
	if sm.CacheHits != wantHits || sm.CacheMisses != wantMisses {
		m.note("server counted %d memo hits / %d misses, want %d / %d", sm.CacheHits, sm.CacheMisses, wantHits, wantMisses)
	}
	m.detail["service.memo_hit_ratio"] = float64(sm.CacheHits) / float64(sm.CacheHits+sm.CacheMisses)
	if s.hit {
		return
	}
	for i := 0; i < verifiedMisses && i < int(sent); i++ {
		want, err := engineAnswer(missBody(s.e.seed, i))
		got, ok := s.got[i]
		switch {
		case err != nil:
			m.note("request %d in process: %v", i, err)
		case !ok:
			// already counted as a failed request
		case got != want:
			m.note("request %d: served %v s / %v J, in-process engine %v s / %v J", i, got.seconds, got.joules, want.seconds, want.joules)
		}
	}
}

// engineAnswer runs a request body's join directly on the engine, on
// the cluster and engine configuration cmd/serve uses by default.
func engineAnswer(body []byte) (answer, error) {
	req, err := service.Decode(body, false)
	if err != nil {
		return answer{}, err
	}
	spec, err := req.Join.Spec()
	if err != nil {
		return answer{}, err
	}
	c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
	if err != nil {
		return answer{}, err
	}
	res, joules, err := pstore.Engine{}.RunJoin(c, serveEngineConfig, spec)
	return answer{res.Seconds, joules}, err
}

// serveEngineConfig mirrors cmd/serve's flag defaults (-warm, -batch-rows).
var serveEngineConfig = pstore.Config{WarmCache: true, BatchRows: 200_000}

func (s *serveInstance) metrics() (report.ServiceMetrics, error) {
	var sm report.ServiceMetrics
	resp, err := s.client.Get(s.srv.url + "/metrics")
	if err != nil {
		return sm, err
	}
	defer resp.Body.Close()
	return sm, json.NewDecoder(resp.Body).Decode(&sm)
}

func (s *serveInstance) peakRSSMB() (float64, error) {
	if s.rssMB > 0 {
		return s.rssMB, nil
	}
	return procStatusMB(s.srv.pid(), "VmHWM")
}

func (s *serveInstance) close() {
	s.client.CloseIdleConnections()
	s.srv.close()
}
