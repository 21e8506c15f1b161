// Package sim provides a deterministic discrete-event simulation (DES)
// kernel used as the timing substrate for every experiment in this
// repository.
//
// The kernel follows the classic process-interaction style (SimPy-like):
// user code runs inside simulated processes (coroutines that execute one
// at a time, switched by the goroutine that called Run), advancing a
// virtual clock measured in float64 seconds. Determinism is guaranteed by
// a strict (time, sequence-number) ordering of events; no wall-clock time
// or unseeded randomness ever enters the simulation.
//
// The primitives offered here are exactly the ones a shared-nothing
// database cluster simulation needs:
//
//   - Engine:    virtual clock + event queue
//   - Proc:      a simulated process (Hold, blocking helpers)
//   - Task:      a stackless process: one callback per step, no coroutine
//   - Server:    a FCFS rate server (models CPU MB/s, disk MB/s, NIC ports)
//   - Queue[T]:  a bounded FIFO with blocking Put/Get (backpressure)
//   - WaitGroup: barrier synchronization between processes
//
// Control transfer is a runtime coroutine switch (iter.Pull). The root —
// the goroutine that called Run, RunUntil or Step — executes the event
// loop: a callback event runs there, a resume event switches into the
// process's coroutine and comes back when the process blocks or returns.
// There is no channel, no go statement and no scheduler goroutine in this
// package, so the host scheduler has nothing to order: every resume is an
// ordinary (time, seq) event and the only thing that picks the next one
// is the heap. The one shortcut keeps that order: a process whose own
// resume is the very next event takes it without switching out and back
// (see Proc.block). Needs Go 1.23 for iter (proc.go's build constraint).
//
// Processes are for programs, tasks for operators: a body that blocks inside
// its callees (a driver, delta.Store.Apply) needs a stack and is a Proc; a
// pump, or a scan pulled block by block, is a Task: no switch.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// MaxTime bounds virtual time: 1e7 seconds, about 116 days, far beyond
// any modelled run. A finite but absurd completion time (a booking of
// 1e300 bytes) would otherwise make every power meter integrate one
// window per virtual second on its way there.
const MaxTime Time = 1e7

// event is a scheduled callback (fn) or process resume (proc). Ordering
// is by (at, seq) so that events scheduled earlier at the same timestamp
// run first, which makes runs bit-reproducible. Tagging resumes in the
// event itself lets blocking primitives schedule them without allocating
// a closure per yield.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// eventHeap is a binary min-heap of event values ordered by (at, seq).
// Storing events by value in one backing array — rather than *event
// through container/heap's interface{} — removes both the per-event
// allocation and the interface boxing on the hottest path in the
// simulator; popped slots are reused in place, so the array acts as the
// event pool. Both sifts move a hole instead of swapping, so an event is
// written once per level. pop sifts bottom-up: the hole left at the root
// walks down to a leaf along the smaller child, one compare per level,
// and the last event, usually one of the latest, rises from there. On
// the experiment suite's stream that is 4.7 compares per pop (1.3 of
// them rising) and 1.9 per push, where a 4-ary swap heap took 7.9 and
// 1.3. Both stay O(log n). Keys are unique (seq is), so the pop order is
// (at, seq) order whatever the heap's shape.
type eventHeap struct {
	evs []event
}

// before is 1 if a is ordered before b and 0 if not, computed without a
// branch: the pop's walk down takes the smaller child by adding it, so a
// coin-flip compare costs no misprediction. A heap event is due after the
// clock (events due now take the ring), so its time is positive, and the
// bits of positive floats order as the floats do: (at, seq) compares as
// one 128-bit unsigned number, whose borrow is the answer.
func before(a, b *event) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.at), math.Float64bits(b.at), borrow)
	return borrow
}

// push inserts ev: a hole opens at the end and rises to ev's position.
func (h *eventHeap) push(ev event) {
	h.evs = append(h.evs, event{})
	evs := h.evs
	i := len(evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if before(&ev, &evs[parent]) == 0 {
			break
		}
		evs[i] = evs[parent]
		i = parent
	}
	evs[i] = ev
}

// pop removes and returns the minimum event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	evs := h.evs
	top := evs[0]
	n := len(evs) - 1
	last := evs[n]
	evs[n] = event{} // release the callback for GC
	evs = evs[:n]
	h.evs = evs
	if n == 0 {
		return top
	}
	// Walk the root's hole down to a leaf along the smaller child ...
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += int(before(&evs[c+1], &evs[c]))
		}
		evs[i] = evs[c]
		i = c
	}
	// ... then lift the displaced last event from that leaf.
	for i > 0 {
		parent := (i - 1) / 2
		if before(&last, &evs[parent]) == 0 {
			break
		}
		evs[i] = evs[parent]
		i = parent
	}
	evs[i] = last
	return top
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

// Stats are the kernel's own counters: what an engine did, by kind of
// event. Events = Resumes + Continues + Callbacks.
type Stats struct {
	Events    uint64 // events executed
	Resumes   uint64 // process resumes dispatched by the root: one coroutine switch in, one out
	Continues uint64 // own-resume events a blocking process consumed without leaving its coroutine
	Callbacks uint64 // plain callback events
	HeapHigh  int    // high-water mark of the event heap (the now-ring is not counted)
	Hash      uint64 // every executed event's (time, seq), folded in execution order
}

// total accumulates the Stats of every engine in the process. Engines
// flush their plain counters once per Run/RunUntil/Step, so the hot loop
// never touches the lock.
var total struct {
	sync.Mutex
	Stats
}

// TotalStats returns the counters of all completed Run/RunUntil/Step
// calls in this process, summed over engines (HeapHigh is the maximum;
// Hash is summed mod 2^64: the engines' order does not matter).
func TotalStats() Stats {
	total.Lock()
	defer total.Unlock()
	return total.Stats
}

// TotalEvents returns the cumulative number of events executed across
// all completed Engine.Run/RunUntil/Step calls in this process. cmd/repro
// reports it for a run (-times, -bench-json), and the repo
// benchmark's probes (benchmark/, sim.events and pstore.join_sf100_events)
// divide it by wall time to report simulator throughput in events/sec.
func TotalEvents() uint64 { return TotalStats().Events }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now     Time   // virtual clock
	seq     uint64 // last sequence number issued; (at, seq) orders events
	events  eventHeap
	nowQ    eventRing // events due exactly at now; FIFO = (at, seq) order
	halted  bool      // set by Halt
	down    bool      // set by Shutdown
	live    []*Proc   // processes whose coroutine exists: started, not finished
	stats   Stats
	flushed Stats // what total has already been given

	// limit bounds the timestamps Run/RunUntil may execute. It also arms
	// the own-resume fast path in Proc.block: Step sets it below every
	// timestamp, so a stepped process never consumes an event itself.
	limit Time
	// pendingPanic carries a process body's panic out of its coroutine to
	// the root caller, which re-throws it.
	pendingPanic *ProcPanic
	// task is the task whose step is running, so that finish can name it.
	task *Task
}

// New returns a fresh simulation engine with the clock at zero. The
// event array is pre-sized so steady-state scheduling never reallocates.
func New() *Engine {
	return &Engine{events: eventHeap{evs: make([]event, 0, 256)}}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// Stats returns the engine's counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// finish ends a Run, RunUntil or Step: it publishes what the engine did
// since the last one to the process-wide counters, and re-throws a panic
// that is unwinding out of a task step as *ProcPanic.
func (e *Engine) finish() {
	s, f := e.stats, e.flushed
	total.Lock()
	total.Events += s.Events - f.Events
	total.Resumes += s.Resumes - f.Resumes
	total.Continues += s.Continues - f.Continues
	total.Callbacks += s.Callbacks - f.Callbacks
	total.HeapHigh = max(total.HeapHigh, s.HeapHigh)
	total.Hash += s.Hash - f.Hash
	total.Unlock()
	e.flushed = s
	if t := e.task; t != nil {
		e.task = nil
		if r := recover(); r != nil {
			panic(&ProcPanic{Proc: t.name, Value: r})
		}
	}
}

// Schedule runs fn after delay seconds of virtual time.
// A negative delay panics: causality violations are always bugs.
func (e *Engine) Schedule(delay float64, fn func()) {
	if !(delay >= 0 && delay <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	e.at(e.now+delay, fn, nil)
}

// At runs fn at absolute virtual time t (>= Now).
func (e *Engine) At(t Time, fn func()) { e.at(t, fn, nil) }

// at enqueues an event; events due exactly now take the ring fast path.
// A NaN time fails every comparison: it would pass the past check, sit at
// the heap root and end every later Run before its first event. A time
// beyond MaxTime, +Inf included, is refused too: Run would advance the
// clock to it. Every event, hold and booking completion comes through
// here.
func (e *Engine) at(t Time, fn func(), p *Proc) {
	if !(t >= e.now && t <= MaxTime) {
		panic(fmt.Sprintf("sim: At(%v) invalid, in the past (now=%v) or beyond MaxTime (%v)", t, e.now, MaxTime))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn, proc: p}
	if t == e.now {
		e.nowQ.push(ev)
		return
	}
	e.events.push(ev)
	if n := len(e.events.evs); n > e.stats.HeapHigh {
		e.stats.HeapHigh = n
	}
}

// resumeAt schedules a control transfer to p at absolute time t.
func (e *Engine) resumeAt(t Time, p *Proc) { e.at(t, nil, p) }

// peek returns the (at, seq)-minimum pending event and whether it sits in
// the heap, or nil when nothing is pending. The now-ring holds only
// events at the current time, and everything still in the heap at that
// time was scheduled before the clock reached it (seq is monotone), so
// heap entries at now always precede ring entries.
func (e *Engine) peek() (ev *event, inHeap bool) {
	if len(e.events.evs) > 0 && (e.nowQ.n == 0 || e.events.evs[0].at <= e.now) {
		return &e.events.evs[0], true
	}
	if e.nowQ.n > 0 {
		return &e.nowQ.buf[e.nowQ.head], false
	}
	return nil, false
}

// take removes the event peek just returned, advances the clock to it
// and counts it.
func (e *Engine) take(inHeap bool) event {
	var ev event
	if inHeap {
		ev = e.events.pop()
	} else {
		ev = e.nowQ.shift()
	}
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.stats.Events++
	e.stats.Hash = (e.stats.Hash ^ math.Float64bits(ev.at) ^ ev.seq) * 0x9e3779b97f4a7c15
	return ev
}

// step executes the next event, if one is due by limit, on the calling
// goroutine — the root: a callback runs here, a resume switches into the
// process's coroutine and returns when the process blocks or finishes. A
// callback panic unwinds from here as it is; a process body panic was
// caught in its coroutine and is re-thrown here as *ProcPanic.
func (e *Engine) step(limit Time) bool {
	next, inHeap := e.peek()
	if next == nil || next.at > limit {
		return false
	}
	ev := e.take(inHeap)
	if ev.proc == nil {
		e.stats.Callbacks++
		ev.fn()
		return true
	}
	e.stats.Resumes++
	ev.proc.resume()
	e.rethrow()
	return true
}

// rethrow re-panics on the root side with what a process body threw.
func (e *Engine) rethrow() {
	if pp := e.pendingPanic; pp != nil {
		e.pendingPanic = nil
		panic(pp)
	}
}

// run executes events with timestamps <= limit until none is left or
// Halt is called.
func (e *Engine) run(limit Time) {
	defer e.finish()
	e.halted = false
	e.limit = limit
	for !e.halted && e.step(limit) {
	}
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
	defer e.finish()
	e.limit = math.Inf(-1) // the process stepped into must yield, not continue
	return e.step(math.Inf(1))
}

// Halt stops Run/RunUntil after the current event completes. Events
// still queued stay queued; a later Run resumes them.
func (e *Engine) Halt() { e.halted = true }

// Shutdown ends the simulation for good. Every process that was started
// and has not finished is suspended in its coroutine; nothing else will
// ever resume it, so the coroutine — and everything it references — would
// outlive the run. Shutdown stops them one at a time, newest first
// (simulated processes never run concurrently, and their deferred calls
// share state): each unwinds from its blocking call, so its deferred
// calls run, and control comes back here. No event is stepped and queued
// events are dropped; a process spawned but never started has no
// coroutine yet and simply never gets one. Call it from the Run caller's
// side, never from inside a process or callback. Afterwards Go panics; a
// second Shutdown is a no-op. A panic in a deferred call is re-thrown
// here.
func (e *Engine) Shutdown() {
	e.down = true
	for len(e.live) > 0 {
		e.live[len(e.live)-1].stop()
	}
	e.events, e.nowQ = eventHeap{}, eventRing{}
	e.rethrow()
}
