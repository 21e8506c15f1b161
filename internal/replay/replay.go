// Package replay drives the service plane from a recorded or synthetic
// request trace: one JSONL event per request, with an arrival offset,
// tenant, priority, and the service envelope to submit. It is the load
// half of cmd/serve's -load harness and the replay half of -load-trace.
//
// The package is deterministic by construction and covered by
// repro-vet's nodeterm analyzer: it never reads the wall clock, never
// sleeps on its own, and spawns no goroutines. Pacing goes through an
// injected Clock (cmd/serve wires the real one; tests wire a fake), and
// Run submits events sequentially in trace order — the caller decides
// how much submission concurrency to put behind the submit callback.
// Synthetic traces come from a seeded generator: the same seed always
// yields the same trace, so a load run is reproducible end to end.
package replay

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/service"
	"repro/internal/workload"
)

// Event is one trace line: submit Request at Offset seconds from the
// start of the replay.
type Event struct {
	// Offset is the arrival time in seconds from trace start. Offsets
	// must be non-negative and non-decreasing.
	Offset float64 `json:"offset_s"`
	// Tenant and Priority, when set, override the envelope's own fields —
	// a trace can re-route a recorded request stream onto new tenants
	// without rewriting every envelope.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Request is the service envelope to submit.
	Request service.Request `json:"request"`
}

// resolve folds the event-level overrides into the envelope.
func (e Event) resolve() service.Request {
	req := e.Request
	if e.Tenant != "" {
		req.Tenant = e.Tenant
	}
	if e.Priority != "" {
		req.Priority = e.Priority
	}
	return req
}

// Load reads a JSONL trace, strictly: unknown fields, malformed offsets
// and out-of-order events are errors naming the line. Blank lines and
// #-comments are skipped.
func Load(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	prev := 0.0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var ev Event
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("replay: line %d: %v", line, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("replay: line %d: trailing data after the event object", line)
		}
		if ev.Offset < 0 || math.IsNaN(ev.Offset) || math.IsInf(ev.Offset, 0) {
			return nil, fmt.Errorf("replay: line %d: offset_s must be a non-negative, finite number, got %v", line, ev.Offset)
		}
		if ev.Offset < prev {
			return nil, fmt.Errorf("replay: line %d: offset_s %v goes backwards (previous event at %v)", line, ev.Offset, prev)
		}
		prev = ev.Offset
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: line %d: %v", line+1, err)
	}
	if len(events) == 0 {
		return nil, errors.New("replay: trace has no events")
	}
	return events, nil
}

// WriteTrace writes events as a JSONL trace readable by Load.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Clock injects time into Run: Now is seconds since replay start, Sleep
// blocks for (about) the given seconds. cmd/serve wires the process
// clock; tests wire a fake. The zero Clock is only valid for flood runs
// (speedup <= 0), which never consult it.
type Clock struct {
	Now   func() float64
	Sleep func(seconds float64)
}

// Run replays events in order, pacing arrivals against clock: event i is
// submitted at Offset/speedup seconds. speedup 1 replays in real time,
// 10 replays ten times faster, and <= 0 floods — every event is
// submitted as fast as submit returns, with no clock access at all.
//
// Submission is sequential (trace order is arrival order); putting a
// dispatch pool behind submit is the caller's choice. Run returns the
// number of events submitted.
func Run(events []Event, clock Clock, speedup float64, submit func(service.Request)) int {
	paced := speedup > 0
	for _, ev := range events {
		if paced {
			if wait := ev.Offset/speedup - clock.Now(); wait > 0 {
				clock.Sleep(wait)
			}
		}
		submit(ev.resolve())
	}
	return len(events)
}

// shapes are the synthetic trace's join working set: a small, fixed
// rotation so a long load run exercises the service's answered-from-
// memory path the way a real dashboard workload would.
var shapes = []workload.JoinRequest{
	{SF: 5, BuildSel: 0.05, ProbeSel: 0.05},
	{SF: 5, BuildSel: 0.10, ProbeSel: 0.02},
	{SF: 10, BuildSel: 0.05, ProbeSel: 0.05, Method: "broadcast"},
	{SF: 10, BuildSel: 0.05, ProbeSel: 0.05, Method: "prepartitioned"},
}

// Synthetic generates an n-event trace over the named tenants: the
// first tenant is the hot one, receiving hotShare of the requests (the
// rest split evenly), about a quarter of all requests are low priority,
// and arrivals tick every millisecond. The generator is seeded — equal
// arguments, equal trace.
func Synthetic(n int, tenants []string, hotShare float64, seed int64) []Event {
	if len(tenants) == 0 {
		tenants = []string{"default"}
	}
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		tenant := tenants[0]
		if len(tenants) > 1 && rng.Float64() >= hotShare {
			tenant = tenants[1+rng.Intn(len(tenants)-1)]
		}
		priority := ""
		if rng.Float64() < 0.25 {
			priority = "low"
		}
		jr := shapes[i%len(shapes)]
		events = append(events, Event{
			Offset:   float64(i) * 0.001,
			Tenant:   tenant,
			Priority: priority,
			Request:  service.Request{V: 1, ID: fmt.Sprintf("load-%d", i), Join: &jr},
		})
	}
	return events
}
