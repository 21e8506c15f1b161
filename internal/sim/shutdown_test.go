package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at (or below)
// base: a released process has handed control to the root before its
// goroutine has quite finished exiting, so the count settles a moment
// later — and base itself may have counted an earlier test's goroutines
// on their way out.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: a simulated process outlived Shutdown",
				runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestShutdownReleasesParkedProcesses covers the three states a process
// can be left in — parked on a queue for ever, parked mid-Hold by a Halt,
// spawned but never started — and the contract around them: deferred
// calls run, no event is stepped, the goroutines are gone, a second
// Shutdown is a no-op and Go afterwards panics.
func TestShutdownReleasesParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	q := NewQueue[int]("never", 1)
	var closed []string
	after := false
	e.Go("getter", func(p *Proc) {
		defer func() { closed = append(closed, "getter") }()
		q.Get(p)
		after = true
	})
	e.Go("holder", func(p *Proc) {
		defer func() { closed = append(closed, "holder") }()
		p.Hold(10)
		after = true
	})
	e.At(1, func() {
		e.Go("unstarted", func(p *Proc) { after = true })
		e.Halt()
	})
	e.Run()

	stepped, total := e.stats.Events, TotalEvents()
	e.Shutdown()
	if len(closed) != 2 {
		t.Fatalf("deferred calls ran for %v, want getter and holder", closed)
	}
	if after {
		t.Fatal("a released process ran past its blocking call")
	}
	if e.stats.Events != stepped || TotalEvents() != total {
		t.Fatalf("Shutdown stepped events: %d -> %d (process-wide %d -> %d)",
			stepped, e.stats.Events, total, TotalEvents())
	}
	waitGoroutines(t, base)

	e.Shutdown() // idempotent
	e.Run()      // nothing left: the queued resume and start events were dropped
	if after || e.stats.Events != stepped {
		t.Fatal("events ran after Shutdown")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Go after Shutdown did not panic")
		}
	}()
	e.Go("late", func(p *Proc) {})
}

// TestShutdownUnwindsThroughBlockingDefers: a deferred call that reaches
// a blocking primitive while its process is being unwound must exit
// again instead of parking (nothing would ever wake it), and the defers
// stacked above it still run.
func TestShutdownUnwindsThroughBlockingDefers(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	full := NewQueue[int]("full", 1)
	full.TryPut(0)
	srv := NewServer(e, "srv", 1)
	var ran []string
	e.Go("cleanup", func(p *Proc) {
		defer func() { ran = append(ran, "outer") }()
		defer func() {
			ran = append(ran, "put")
			full.Put(p, 1) // full queue: would park for ever
			ran = append(ran, "put returned")
		}()
		defer func() {
			ran = append(ran, "process")
			srv.Process(p, 1)
			ran = append(ran, "process returned")
		}()
		p.Hold(1)
	})
	e.At(0.5, e.Halt)
	e.Run()
	e.Shutdown()
	if want := []string{"process", "put", "outer"}; !slices.Equal(ran, want) {
		t.Fatalf("deferred calls ran %v, want %v", ran, want)
	}
	waitGoroutines(t, base)
}

// TestShutdownReleasesOneAtATime: deferred calls of different processes
// touch shared state unsynchronised (simulated processes never run
// concurrently); run under -race this fails if Shutdown ever lets two
// unwind at once. With 64 of them parked it is also the goroutine-count
// check: none may survive.
func TestShutdownReleasesOneAtATime(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	q := NewQueue[int]("never", 0)
	open := 0
	for i := 0; i < 64; i++ {
		e.Go("worker", func(p *Proc) {
			open++
			defer func() { open-- }()
			q.Get(p)
		})
	}
	e.Run()
	if open != 64 {
		t.Fatalf("%d processes parked, want 64", open)
	}
	e.Shutdown()
	if open != 0 {
		t.Fatalf("%d deferred calls did not run", open)
	}
	waitGoroutines(t, base)
}

// TestShutdownRethrowsDeferredPanic: a panic out of a deferred call
// during the unwind surfaces from Shutdown as *ProcPanic, like a body
// panic surfaces from Run.
func TestShutdownRethrowsDeferredPanic(t *testing.T) {
	e := New()
	e.Go("bad", func(p *Proc) {
		defer panic("in defer")
		p.Hold(1)
	})
	e.At(0.5, e.Halt)
	e.Run()
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok || pp.Proc != "bad" || pp.Value != "in defer" {
			t.Fatalf("recovered %v, want *ProcPanic{bad, in defer}", pp)
		}
	}()
	e.Shutdown()
	t.Fatal("Shutdown swallowed the panic")
}
