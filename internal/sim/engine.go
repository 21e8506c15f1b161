// Package sim provides a deterministic discrete-event simulation (DES)
// kernel used as the timing substrate for every experiment in this
// repository.
//
// The kernel follows the classic process-interaction style (SimPy-like):
// user code runs inside simulated processes (goroutines that execute in
// lock-step with the scheduler, one at a time), advancing a virtual clock
// measured in float64 seconds. Determinism is guaranteed by a strict
// (time, sequence-number) ordering of events; no wall-clock time or
// unseeded randomness ever enters the simulation.
//
// The primitives offered here are exactly the ones a shared-nothing
// database cluster simulation needs:
//
//   - Engine:    virtual clock + event queue
//   - Proc:      a simulated process (Hold, blocking helpers)
//   - Server:    a FCFS rate server (models CPU MB/s, disk MB/s, NIC ports)
//   - Queue[T]:  a bounded FIFO with blocking Put/Get (backpressure)
//   - WaitGroup: barrier synchronization between processes
//
// Scheduling is direct-handoff: there is no dedicated scheduler
// goroutine. Whichever goroutine currently holds control (the Run caller
// or a simulated process that just blocked) drives the event loop, and a
// process resume is a single token-channel send straight to the target
// process — one goroutine wakeup per control transfer instead of the two
// a park-to-scheduler design pays. Event order is unaffected: every
// resume is still an ordinary (time, seq) event.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// event is a scheduled callback and/or process resume. Ordering is by
// (at, seq) so that events scheduled earlier at the same timestamp run
// first, which makes runs bit-reproducible. When proc is non-nil the
// event transfers control to that process (after running fn, if any);
// tagging resumes in the event itself lets blocking primitives schedule
// them without allocating a closure per yield.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// eventHeap is a concrete 4-ary min-heap of event values ordered by
// (at, seq). Storing events by value in one backing array — rather than
// *event through container/heap's interface{} — removes both the
// per-event allocation and the interface boxing on the hottest path in
// the simulator; popped slots are reused in place, so the array acts as
// the event pool. The 4-ary shape halves tree depth versus a binary
// heap: sift-up touches half the nodes per push, and a node's four
// children are adjacent, sharing cache lines on sift-down.
type eventHeap struct {
	evs []event
}

func (h *eventHeap) less(i, j int) bool {
	if h.evs[i].at != h.evs[j].at {
		return h.evs[i].at < h.evs[j].at
	}
	return h.evs[i].seq < h.evs[j].seq
}

// push inserts ev, sifting it up to its heap position.
func (h *eventHeap) push(ev event) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	ev := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs[n] = event{} // release the callback for GC
	h.evs = h.evs[:n]
	// Sift the displaced last element down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.evs[i], h.evs[min] = h.evs[min], h.evs[i]
		i = min
	}
	return ev
}

// eventRing is a FIFO ring of events already due at the current virtual
// time. Because seq is monotone, insertion order IS (at, seq) order
// within the ring, so "schedule at now" — the single most frequent
// operation in the simulator (every queue wake, zero-hold and
// already-complete server booking goes through it) — costs one ring
// append instead of a heap sift.
type eventRing struct {
	buf  []event
	head int
	n    int
}

// The ring capacity is always a power of two, so indexing masks with
// len(buf)-1 instead of paying a divide on the hottest scheduling path.
func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		grown := make([]event, max(2*len(r.buf), 64))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) shift() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release the callback for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// totalEvents accumulates events executed by every engine whose
// Run/RunUntil returned, process-wide. Engines flush their local counter
// once per run, so the hot loop never touches the atomic.
var totalEvents atomic.Uint64

// TotalEvents returns the cumulative number of events executed across
// all completed Engine.Run/RunUntil calls in this process. The benchmark
// snapshot (cmd/repro -bench-json) divides its delta by wall time to
// report simulator throughput in events/sec.
func TotalEvents() uint64 { return totalEvents.Load() }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now     Time   // virtual clock
	seq     uint64 // last sequence number issued; (at, seq) orders events
	events  eventHeap
	nowQ    eventRing // events due exactly at now; FIFO = (at, seq) order
	halted  bool      // set by Halt
	down    bool      // set by Shutdown
	live    []*Proc   // processes whose goroutine exists: started, not finished
	stepped uint64
	flushed uint64 // events already added to totalEvents

	// Direct-handoff state: root parks the Run/RunUntil/Step caller
	// while processes hold control; limit bounds event timestamps for
	// RunUntil; stepping makes every yield return to root (Step mode);
	// pendingPanic carries a panic from whichever goroutine held control
	// back to the root caller, which re-throws it.
	root         chan struct{}
	limit        Time
	stepping     bool
	pendingPanic any
}

// New returns a fresh simulation engine with the clock at zero. The
// event array is pre-sized so steady-state scheduling never reallocates.
func New() *Engine {
	return &Engine{
		events: eventHeap{evs: make([]event, 0, 256)},
		root:   make(chan struct{}),
	}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events processed so far.
func (e *Engine) Events() uint64 { return e.stepped }

// flushEvents publishes events executed since the last flush to the
// process-wide counter.
func (e *Engine) flushEvents() {
	totalEvents.Add(e.stepped - e.flushed)
	e.flushed = e.stepped
}

// Schedule runs fn after delay seconds of virtual time.
// A negative delay panics: causality violations are always bugs.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	e.at(e.now+delay, fn, nil)
}

// At runs fn at absolute virtual time t (>= Now).
func (e *Engine) At(t Time, fn func()) { e.at(t, fn, nil) }

// at enqueues an event; events due exactly now take the ring fast path.
func (e *Engine) at(t Time, fn func(), p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) in the past (now=%v)", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn, proc: p}
	if t == e.now {
		e.nowQ.push(ev)
		return
	}
	e.events.push(ev)
}

// resumeAt schedules a control transfer to p at absolute time t.
func (e *Engine) resumeAt(t Time, p *Proc) { e.at(t, nil, p) }

// next removes and returns the (at, seq)-minimum pending event. The
// now-ring holds only events at the current time, and everything still in
// the heap at that time was scheduled before the clock reached it (seq is
// monotone), so heap entries at now always precede ring entries.
func (e *Engine) next() (event, bool) {
	if e.nowQ.n > 0 {
		if len(e.events.evs) > 0 && e.events.evs[0].at <= e.now {
			return e.events.pop(), true
		}
		return e.nowQ.shift(), true
	}
	if len(e.events.evs) == 0 {
		return event{}, false
	}
	return e.events.pop(), true
}

// pendingBy reports whether any queued event is due at or before t.
func (e *Engine) pendingBy(t Time) bool {
	if e.nowQ.n > 0 && e.now <= t {
		return true
	}
	return len(e.events.evs) > 0 && e.events.evs[0].at <= t
}

// runFn executes a callback event, capturing a panic for the root caller
// (the callback may be running on a blocked process's goroutine, which
// must survive to keep its own park coherent). Reports whether fn
// panicked.
func (e *Engine) runFn(fn func()) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			e.pendingPanic = r
			panicked = true
		}
	}()
	fn()
	return false
}

// outcome says how a drive ended: the run is over (queue drained past
// limit, Halt, or a callback panic), control was handed to another
// process, or the driver's own resume event came up.
type outcome int

const (
	outDone outcome = iota
	outTransferred
	outSelf
)

// drive executes events on the calling goroutine until one of the
// outcomes above. self is the process driving (nil for the root caller):
// popping self's own resume returns outSelf instead of a channel send,
// so a process whose wake is already due continues without any handoff
// at all.
func (e *Engine) drive(self *Proc) outcome {
	for !e.halted {
		if !e.pendingBy(e.limit) {
			return outDone
		}
		ev, _ := e.next()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.stepped++
		if ev.fn != nil && e.runFn(ev.fn) {
			return outDone
		}
		if ev.proc != nil {
			if ev.proc == self {
				return outSelf
			}
			ev.proc.tok <- struct{}{}
			return outTransferred
		}
	}
	return outDone
}

// rethrow re-panics on the root side with whatever a process body or
// event callback threw while holding control.
func (e *Engine) rethrow() {
	if r := e.pendingPanic; r != nil {
		e.pendingPanic = nil
		panic(r)
	}
}

// run drives events with timestamps <= limit to completion.
func (e *Engine) run(limit Time) {
	defer e.flushEvents()
	e.halted = false
	e.stepping = false
	e.limit = limit
	if e.drive(nil) == outTransferred {
		<-e.root
	}
	e.rethrow()
}

// Run executes events until the queue is empty or Halt is called. A
// process body panic (or a callback panic) aborts the run and re-panics
// here, on the caller's side.
func (e *Engine) Run() { e.run(math.Inf(1)) }

// RunUntil executes events with timestamps <= t, then sets the clock to
// exactly t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.run(t)
	if !e.halted && e.now < t {
		e.now = t
	}
}

// Step executes the single next event — including, for a resume event,
// the full slice of process execution until that process blocks again.
// It returns false when the event queue is empty. A process body panic
// surfaces here (see ProcPanic), after the process has been unwound.
func (e *Engine) Step() bool {
	ev, ok := e.next()
	if !ok {
		return false
	}
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.stepped++
	e.stepping = true
	if ev.fn == nil || !e.runFn(ev.fn) {
		if ev.proc != nil {
			ev.proc.tok <- struct{}{}
			<-e.root
		}
	}
	e.stepping = false
	e.rethrow()
	return true
}

// Halt stops Run/RunUntil after the current event completes. Events
// still queued stay queued; a later Run resumes them.
func (e *Engine) Halt() { e.halted = true }

// Shutdown ends the simulation for good. Every process that was started
// and has not finished is parked on its token; nothing else will ever
// resume it, so its goroutine — and everything it references — would
// outlive the run. Shutdown releases them one at a time (simulated
// processes never run concurrently, and their deferred calls share
// state): each unwinds with runtime.Goexit, so its deferred calls run,
// and hands control back. No event is stepped and queued events are
// dropped; a process spawned but never started has no goroutine yet and
// simply never gets one. Call it from the Run caller's side, never from
// inside a process or callback. Afterwards Go panics; a second Shutdown
// is a no-op. A panic in a deferred call is re-thrown here.
func (e *Engine) Shutdown() {
	e.down = true
	for len(e.live) > 0 {
		e.live[len(e.live)-1].tok <- struct{}{}
		<-e.root
	}
	e.events, e.nowQ = eventHeap{}, eventRing{}
	e.rethrow()
}
