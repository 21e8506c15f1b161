package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/service"
)

const (
	floodInflight = 64 // concurrent submissions, equal to the per-tenant quota
	floodWorkers  = 4
	floodSample   = 8 // one Server.Do in eight is timed
)

var floodTenants = []string{"hot", "t1", "t2", "t3"}

// floodInstance is serve_flood: an in-process service.Server fed a
// seeded synthetic trace through Server.Do. It is the path the legacy
// BENCH_serve_baseline.json number measured, labelled as what it is: no
// JSON, no HTTP, and — after the trace's four join shapes have been
// answered once — no engine.
type floodInstance struct {
	srv    *service.Server
	events []replay.Event
	sent   int64 // requests submitted, set-up included
}

// setupFlood generates the trace from the seed, starts the server and
// sends one pass's worth of the four shapes so every measured request is
// a memo hit. 64 submissions in flight against a per-tenant quota of 64
// plus four workers means admission never sheds, by construction.
func setupFlood(e env) (instance, error) {
	f := &floodInstance{events: replay.Synthetic(e.scaled(2_000_000, 2_000), floodTenants, 0.8, e.seed)}
	srv, err := service.New(service.Config{
		Admission: service.Admission{QueueDepth: floodInflight},
		Execution: service.Execution{Workers: floodWorkers},
	})
	if err != nil {
		return nil, err
	}
	f.srv = srv
	var bad *report.ServiceResponse
	f.sent += int64(replay.Run(f.events[:8], replay.Clock{}, 0, func(r service.Request) {
		if resp := srv.Do(r); !resp.OK() && bad == nil {
			bad = &resp
		}
	}))
	if bad != nil {
		srv.Close()
		return nil, fmt.Errorf("serve_flood: warm-up request %s: %s %s", bad.ID, bad.Status, bad.Error)
	}
	return f, nil
}

func (f *floodInstance) measure(d time.Duration, tr *tracer, parent int) measurement {
	var m measurement
	type tally struct {
		lat       []float64
		done, bad int
		firstBad  report.ServiceResponse
	}
	tallies := make([]tally, floodInflight)
	// The channel holds one request per dispatcher, as cmd/serve -load
	// sizes it: the feeder stays just ahead of the submitters.
	reqs := make(chan service.Request, floodInflight)
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func(t *tally, lane int) {
			defer wg.Done()
			for r := range reqs {
				timed := t.done%floodSample == 0
				var start time.Time
				if timed {
					start = time.Now()
				}
				resp := f.srv.Do(r)
				if timed {
					end := time.Now()
					t.lat = append(t.lat, end.Sub(start).Seconds())
					if tr != nil && t.done%(100*floodSample) == 0 {
						tr.add(parent, "service", "Server.Do", lane, start, end, false)
					}
				}
				t.done++
				if !resp.OK() || resp.ID != r.ID {
					if t.bad == 0 {
						t.firstBad = resp
					}
					t.bad++
				}
			}
		}(&tallies[i], i+1)
	}
	begin := time.Now()
	for time.Since(begin) < d {
		pass := time.Now()
		m.attempted += replay.Run(f.events, replay.Clock{}, 0, func(r service.Request) { reqs <- r })
		tr.add(parent, "replay", "replay.Run", 0, pass, time.Now(), false)
	}
	close(reqs)
	wg.Wait()
	m.wall = time.Since(begin)
	f.sent += int64(m.attempted)

	answered := 0
	for _, t := range tallies {
		m.latencies = append(m.latencies, t.lat...)
		answered += t.done
		if t.bad > 0 {
			m.failed += t.bad
			m.note("%d responses not ok, first: id %q status %q %s", t.bad, t.firstBad.ID, t.firstBad.Status, t.firstBad.Error)
		}
	}
	if answered != m.attempted {
		m.note("%d requests submitted, %d answered", m.attempted, answered)
	}
	return m
}

// verify checks the server's counters against what was submitted: every
// request received and answered ok, nothing shed, the per-tenant
// breakdown summing to the total, and all but the four first-seen shapes
// answered from the memo.
func (f *floodInstance) verify(m *measurement) {
	sm := f.srv.Metrics()
	if sm.Received != f.sent || sm.OK != f.sent || sm.Shed+sm.Errors+sm.Deadline != 0 {
		m.note("server counted received=%d ok=%d shed=%d errors=%d deadline=%d, submitted %d", sm.Received, sm.OK, sm.Shed, sm.Errors, sm.Deadline, f.sent)
	}
	var byTenant int64
	for _, tm := range sm.Tenants {
		byTenant += tm.Received
	}
	if byTenant != f.sent || len(sm.Tenants) != len(floodTenants) {
		m.note("per-tenant counters sum to %d over %d tenants, submitted %d over %d", byTenant, len(sm.Tenants), f.sent, len(floodTenants))
	}
	if sm.CacheMisses != 4 || sm.CacheHits != f.sent-4 {
		m.note("server counted %d memo hits / %d misses, want %d / 4", sm.CacheHits, sm.CacheMisses, f.sent-4)
	}
	m.detail = map[string]float64{"service.memo_hit_ratio": float64(sm.CacheHits) / float64(sm.CacheHits+sm.CacheMisses)}
}

func (f *floodInstance) peakRSSMB() (float64, error) { return selfPeakRSSMB() }
func (f *floodInstance) close()                      { f.srv.Close() }
