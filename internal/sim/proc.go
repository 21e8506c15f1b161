package sim

import (
	"fmt"
	"math"
	"runtime"
)

// Proc is a simulated process: a goroutine that runs in lock-step with the
// simulation scheduler. At any instant at most one process (or event
// callback) executes; a process runs until it blocks on a simulation
// primitive (Hold, Queue.Get/Put, Server.Process, WaitGroup.Wait, ...),
// at which point it hands control onward (direct handoff: it drives the
// event loop itself until another process is due, then parks on its own
// token channel).
//
// All blocking methods must be called only from within the process's own
// body function.
type Proc struct {
	eng  *Engine
	name string
	tok  chan struct{} // the control token; receiving it means "run"

	// wake is the process's reusable resume callback, allocated once at
	// spawn: wait-lists (queues, wait groups, events) store it instead of
	// building a fresh closure per yield (the former top allocation site
	// of the whole simulator).
	wake func()

	slot int // index in eng.live while the goroutine exists
}

// ProcPanic is the value re-thrown on the scheduler side when a process
// body panics: the panic value is handed back through the yield handoff
// and unwinds out of Engine.Step (or Run/RunUntil) tagged with the
// process name, where tests and callers can recover it. The original
// panic value is preserved in Value.
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
// events at this timestamp); the goroutine itself is created only when
// that event fires.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	if e.down {
		panic(fmt.Sprintf("sim: Go(%q) after Shutdown", name))
	}
	p := &Proc{
		eng:  e,
		name: name,
		tok:  make(chan struct{}),
	}
	p.wake = func() { p.eng.resumeAt(p.eng.now, p) }
	//lint:deterministic the handoff token serializes proc goroutines: exactly one runs at a time, so runtime scheduling order can never reorder events
	e.at(e.now, func() { go p.run(body) }, p)
	return p
}

// run is the process goroutine: it waits for its first token, executes
// the body, and on exit — normal, panicking or unwound by Shutdown —
// returns control to the simulation. A body panic is handed to the root
// caller (Run/Step), which re-throws it as *ProcPanic; the engine is left
// intact, so the failure is observable and recoverable from the outside.
func (p *Proc) run(body func(p *Proc)) {
	<-p.tok
	e := p.eng
	p.slot = len(e.live)
	e.live = append(e.live, p)
	returned := false
	defer func() {
		if returned {
			// exit has already handed control on: the engine is no longer
			// this goroutine's to read.
			return
		}
		// The body panicked or was unwound by runtime.Goexit (Shutdown's
		// release, or a t.Fatal inside the body): control is still here
		// and goes back to the root caller.
		if r := recover(); r != nil {
			e.pendingPanic = &ProcPanic{Proc: p.name, Value: r}
		}
		p.retire()
		e.root <- struct{}{}
	}()
	body(p)
	p.retire()
	returned = true
	p.exit()
}

// retire drops the process from the engine's live list (swap-remove).
func (p *Proc) retire() {
	e := p.eng
	last := e.live[len(e.live)-1]
	e.live[p.slot], last.slot = last, p.slot
	e.live = e.live[:len(e.live)-1]
}

// exit hands control onward after the body returned: drive the loop (a
// finished process cannot be resumed, so outSelf is impossible) and wake
// the root if the run is over.
func (p *Proc) exit() {
	e := p.eng
	if e.stepping || e.drive(nil) == outDone {
		e.root <- struct{}{}
	}
}

// block yields control and waits to be resumed. Called only from process
// context, always after scheduling (or registering) this process's own
// resume. The blocked process drives the event loop itself: if its own
// resume is the next event it simply continues (zero handoffs); if
// another process is due it hands the token straight over (one handoff);
// only when the run ends does it wake the root and park.
//
// After Shutdown nothing will ever resume a parked process, so block
// unwinds the goroutine instead: the process Shutdown releases exits
// from its park, and a blocking primitive reached from one of its
// deferred calls exits again rather than parking.
func (p *Proc) block() {
	e := p.eng
	if e.down {
		runtime.Goexit()
	}
	if e.stepping {
		e.root <- struct{}{}
	} else {
		switch e.drive(p) {
		case outSelf:
			return
		case outDone:
			e.root <- struct{}{}
		}
	}
	<-p.tok
	if e.down {
		runtime.Goexit()
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
	if d < 0 {
		panic(fmt.Sprintf("sim: %s Hold(%v) negative", p.name, d))
	}
	if math.IsNaN(d) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", d, p.eng.now))
	}
	// Even a zero hold yields to the scheduler, preserving fairness.
	p.eng.resumeAt(p.eng.now+d, p)
	p.block()
}

// HoldUntil suspends the process until absolute virtual time t.
func (p *Proc) HoldUntil(t Time) {
	if t < p.eng.now {
		panic(fmt.Sprintf("sim: %s HoldUntil(%v) in the past (now=%v)", p.name, t, p.eng.now))
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
