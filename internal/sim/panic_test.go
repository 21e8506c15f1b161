package sim

import (
	"strings"
	"testing"
)

// TestProcPanicPropagatesToRun checks the panic handoff: a panicking
// process body must not crash its own goroutine (which would take the
// whole program down un-recoverably with the scheduler parked) — the
// panic value travels back through the yield handoff and re-panics on
// the Run caller's side as *ProcPanic carrying the process name.
func TestProcPanicPropagatesToRun(t *testing.T) {
	e := New()
	e.Go("worker", func(p *Proc) {
		p.Hold(1)
		panic("boom")
	})
	e.Go("bystander", func(p *Proc) { p.Hold(5) })

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned without re-panicking")
		}
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "worker" || pp.Value != "boom" {
			t.Fatalf("ProcPanic = {%q %v}, want {worker boom}", pp.Proc, pp.Value)
		}
		if want := `sim: process "worker" panicked: boom`; pp.Error() != want {
			t.Fatalf("Error() = %q, want %q", pp.Error(), want)
		}
	}()
	e.Run()
}

// TestEngineUsableAfterProcPanic: recovering the re-panic leaves the
// engine coherent — remaining events (including other processes'
// resumes) still run on the next Run call.
func TestEngineUsableAfterProcPanic(t *testing.T) {
	e := New()
	finished := false
	e.Go("doomed", func(p *Proc) {
		p.Hold(1)
		panic("gone")
	})
	e.Go("survivor", func(p *Proc) {
		p.Hold(10)
		finished = true
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first Run did not panic")
			}
		}()
		e.Run()
	}()
	e.Run() // drains the survivor's pending resume
	if !finished {
		t.Fatal("survivor did not finish after recovering from the panic")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

// TestCallbackPanicWhileProcessDrives: with direct handoff the goroutine
// executing a plain callback event may be a blocked process, not the Run
// caller. The panic must still unwind from Run with its original value,
// and the driving process must stay parked, resumable by a later Run.
func TestCallbackPanicWhileProcessDrives(t *testing.T) {
	e := New()
	done := false
	e.Go("driver", func(p *Proc) {
		p.Hold(3) // while parked until t=3, this process drives the loop
		done = true
	})
	e.Schedule(1, func() { panic("cb-boom") })
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(toString(r), "cb-boom") {
				t.Fatalf("recovered %v, want cb-boom", r)
			}
		}()
		e.Run()
	}()
	e.Run()
	if !done {
		t.Fatal("driving process was lost after a callback panic")
	}
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if err, ok := v.(error); ok {
		return err.Error()
	}
	return ""
}
