//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math"
)

// Proc is a simulated process: a runtime coroutine (iter.Pull) that the
// root — whichever goroutine called Run — switches into for every resume
// event. At any instant at most one process (or event callback) executes;
// a process runs until it blocks on a simulation primitive (Hold,
// Queue.Get/Put, Server.Process, WaitGroup.Wait, ...), at which point it
// yields back to the root, which executes the next event. A switch is a direct goroutine-to-goroutine transfer inside the
// runtime: no channel, no scheduler pass, and nothing the host scheduler
// could reorder.
//
// All blocking methods must be called only from within the process's own
// body function.
type Proc struct {
	eng  *Engine
	name string

	// body waits for the first resume event, which creates the coroutine:
	// a process that never starts costs no goroutine. next switches into
	// the coroutine; yield, valid inside it, switches back and reports
	// false once stop has been called; stop makes it so and returns when
	// the body has unwound.
	body  func(p *Proc)
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// wake is the process's reusable resume callback, allocated once at
	// spawn: wait-lists (queues, wait groups, events) store it instead of
	// building a fresh closure per yield (the former top allocation site
	// of the whole simulator).
	wake func()

	slot int // index in eng.live while the coroutine exists
}

// ProcPanic is the value re-thrown on the root side when a process body
// panics: the panic is recovered inside the process's coroutine and
// unwinds out of Engine.Run tagged with the process name, where tests and
// callers can recover it. The original panic value
// is preserved in Value.
type ProcPanic struct {
	Proc  string
	Value any
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", pp.Proc, pp.Value)
}

func (pp *ProcPanic) String() string { return pp.Error() }

// Go spawns a new simulated process executing body. The process starts at
// the current virtual time (as a scheduled event, after already-queued
// events at this timestamp); the coroutine itself is created only when
// that event fires.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	if e.down {
		panic(fmt.Sprintf("sim: Go(%q) after Shutdown", name))
	}
	p := &Proc{eng: e, name: name, body: body}
	p.wake = func() { p.eng.resumeAt(p.eng.now, p) }
	e.resumeAt(e.now, p)
	return p
}

// Task is a stackless process: a named step function the root runs as a
// plain callback event. A step does what it can without blocking, arranges
// its next step — Queue.WaitGet or WaitPut, WaitGroup.WaitTask, or Step
// handed to Server.ProcessAsync or Engine.At — and returns; each costs the
// one (time, seq) event the blocking form costs a Proc. A task is reachable only from
// the event queue or wait-list that holds it: Shutdown unwinds nothing.
type Task struct {
	name string
	Step func() // runs one step; its panic reaches the Run caller as *ProcPanic
	wake func() // reusable wait-list entry: schedules Step at now
}

// GoTask spawns a task. Like Go, its first step is an event at the current
// time; nothing is allocated after this call.
func (e *Engine) GoTask(name string, step func(t *Task)) *Task {
	if e.down {
		panic(fmt.Sprintf("sim: GoTask(%q) after Shutdown", name))
	}
	t := &Task{name: name}
	t.Step = func() { e.task = t; step(t); e.task = nil }
	t.wake = func() { e.at(e.now, t.Step, nil) }
	t.wake()
	return t
}

// unwind is what block panics with once Shutdown has stopped the
// process: the body unwinds through its deferred calls and resume's
// wrapper recovers it. (Not a Goexit: iter.Pull would carry that into the
// Shutdown caller.) A body that recovers it only runs on to its next
// blocking call, which panics again.
type unwind struct{}

// resume switches into the process until it blocks or finishes; the
// first resume creates the coroutine. The wrapper around the body is
// where every way out of it ends: a normal return, a panic — kept for
// the root to re-throw as *ProcPanic, the engine left intact so the
// failure is observable and recoverable from outside — and Shutdown's
// unwind. A Goexit in the body (a t.Fatal) runs the wrapper too, then
// ends the root goroutine that called Run: iter.Pull propagates it.
func (p *Proc) resume() {
	if body := p.body; body != nil {
		p.body = nil
		e := p.eng
		p.slot = len(e.live)
		e.live = append(e.live, p)
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				if r := recover(); r != nil && r != (unwind{}) {
					e.pendingPanic = &ProcPanic{Proc: p.name, Value: r}
				}
				// Drop the process from the live list (swap-remove).
				last := e.live[len(e.live)-1]
				e.live[p.slot], last.slot = last, p.slot
				e.live = e.live[:len(e.live)-1]
			}()
			body(p)
		})
	}
	p.next()
}

// block yields control and waits to be resumed. Called only from process
// context, always after scheduling (or registering) this process's own
// resume. One fast path: when the next event is this process's own
// resume, block consumes it and returns without leaving the coroutine — a
// lone process in a Hold loop never switches at all. The event is still an
// ordinary (time, seq) event, taken only when the root would have taken it
// next: not after Halt.
//
// After Shutdown nothing will ever resume a suspended process, so block
// unwinds it instead: the process Shutdown stops panics out of its yield
// with unwind, and a blocking primitive reached from one of its deferred
// calls panics again rather than suspending.
func (p *Proc) block() {
	e := p.eng
	if e.down {
		panic(unwind{})
	}
	if next, inHeap := e.peek(); next != nil && next.proc == p && !e.halted {
		e.take(inHeap)
		e.stats.Continues++
		return
	}
	if !p.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Hold suspends the process for d seconds of virtual time.
func (p *Proc) Hold(d float64) {
	if !(d >= 0 && d <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: %s Hold with invalid delay %v at t=%v", p.name, d, p.eng.now))
	}
	// Even a zero hold yields to the scheduler, preserving fairness.
	p.eng.resumeAt(p.eng.now+d, p)
	p.block()
}

// HoldUntil suspends the process until absolute virtual time t.
func (p *Proc) HoldUntil(t Time) {
	if !(t >= p.eng.now && t <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: %s HoldUntil(%v) invalid or in the past (now=%v)", p.name, t, p.eng.now))
	}
	p.eng.resumeAt(t, p)
	p.block()
}

// parkOn appends the process's reusable wake callback to an external
// wait-list and blocks. Whoever drains the list must invoke the callback
// (from simulation context) to resume the process; the callback schedules
// the resume as an at-now event so virtual time stays coherent.
func (p *Proc) parkOn(waiters *[]func()) {
	*waiters = append(*waiters, p.wake)
	p.block()
}

// WaitGroup is a simulation-aware barrier. Unlike sync.WaitGroup it wakes
// waiting processes through the scheduler so virtual time stays coherent.
type WaitGroup struct {
	count   int
	waiters []func()
}

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter; when it reaches zero all waiters resume.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.count == 0 {
		// Truncate in place instead of nilling: wake callbacks only
		// schedule resume events, so the backing array can be reused by
		// the next wait cycle without a fresh allocation per park (see
		// Queue.wakeGetters for the full invariant).
		ws := wg.waiters
		wg.waiters = wg.waiters[:0]
		for _, w := range ws {
			w()
		}
	}
}

// Wait blocks the process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	p.parkOn(&wg.waiters)
}

// WaitTask is Wait for a task: true at zero, else t is stepped once at zero.
func (wg *WaitGroup) WaitTask(t *Task) bool {
	if wg.count > 0 {
		wg.waiters = append(wg.waiters, t.wake)
	}
	return wg.count == 0
}

// Event is a one-shot broadcast signal: processes wait until Fire is
// called; waits after Fire return immediately.
type Event struct {
	fired   bool
	waiters []func()
}

// Fire triggers the event, waking all waiters. Idempotent.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ws := ev.waiters
	ev.waiters = nil // one-shot: the list is never refilled, release it
	for _, w := range ws {
		w()
	}
}

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Wait blocks the process until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	p.parkOn(&ev.waiters)
}
