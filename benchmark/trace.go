package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer, a sub-process, or a sampled request. Parent is the ID of
// the span that caused it (0 = root). Spans live in memory until the run
// ends; nothing is written while a workload is being measured.
type span struct {
	ID     int
	Parent int
	Layer  string // module name: sim, pstore, service, http, ...
	Name   string
	Lane   int // Chrome-trace thread: one per client, 0 for the driver
	Start  time.Duration
	End    time.Duration
	// Derived marks a span whose position inside its parent was
	// reconstructed from durations the program reported (per-experiment
	// wall times, a response's queue/run split) rather than observed.
	Derived bool
}

// tracer collects spans. A nil *tracer is the untraced run: every method
// is a no-op, so workloads call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, layer, name string, lane int, start, end time.Time, derived bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Lane: lane,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Derived: derived})
	return id
}

// open reserves an ID for a span that encloses others (a workload, a
// round); close stamps its end.
func (t *tracer) open(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, layer, name, 0, now, now, false)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0)
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of it its children cover (children are
// clipped to the parent and merged, so overlapping children are not
// subtracted twice).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Layer] += s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto): timestamps and durations in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome-trace JSON file.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "derived": s.Derived},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTable renders the per-layer self times, largest first.
func (t *tracer) layerTable() string {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %7s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-14s %12.3f %6.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
	return b.String()
}
