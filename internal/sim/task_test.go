package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// pumpTrace runs a seeded producer → in → pump → out → consumer line on a
// fresh engine and returns what the consumer saw and what the kernel
// counted. The pump — take from a queue, book a server, put to a queue —
// is the process below when asTask is false and the task when it is true;
// everything around it is the same processes.
func pumpTrace(seed int64, asTask bool) (log []string, st Stats, busy float64) {
	rng := rand.New(rand.NewSource(seed))
	e := New()
	in := NewQueue[int]("in", 1+rng.Intn(4))
	out := NewQueue[int]("out", 1+rng.Intn(4))
	srv := NewServer(e, "port", 100)
	items := 50 + rng.Intn(50)
	gaps, sizes, lags := make([]float64, items), make([]float64, items), make([]float64, items)
	for i := range gaps {
		gaps[i] = float64(rng.Intn(3)) * 0.01 // zero gaps: bursts that fill the queue
		sizes[i] = float64(rng.Intn(4))       // zero sizes: a booking that ends now
		lags[i] = float64(rng.Intn(3)) * 0.02
	}
	e.Go("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			p.Hold(gaps[i])
			in.Put(p, i)
		}
		in.Close()
	})
	if asTask {
		var v int
		var held bool
		e.GoTask("pump", func(t *Task) {
			for {
				if !held {
					if held = in.TryGet(&v); !held {
						if in.Closed() {
							out.Close()
						} else {
							in.WaitGet(t)
						}
						return
					}
					srv.ProcessAsync(sizes[v], t.Step)
					return
				}
				if !out.TryPut(v) {
					out.WaitPut(t)
					return
				}
				held = false
			}
		})
	} else {
		e.Go("pump", func(p *Proc) {
			for {
				v, ok := in.Get(p)
				if !ok {
					break
				}
				srv.Process(p, sizes[v])
				out.Put(p, v)
			}
			out.Close()
		})
	}
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := out.Get(p)
			if !ok {
				return
			}
			log = append(log, fmt.Sprintf("%v:%d", p.Now(), v))
			p.Hold(lags[v])
		}
	})
	e.Run()
	return log, e.Stats(), srv.BusySeconds()
}

// TestTaskPumpMatchesProcPump: a task costs the events the process it
// replaces costs, at the same (time, seq) — the deliveries, the event
// count and the server's busy time are identical; only who ran the pump's
// events differs.
func TestTaskPumpMatchesProcPump(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		refLog, ref, refBusy := pumpTrace(seed, false)
		log, st, busy := pumpTrace(seed, true)
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("seed %d: task pump delivered\n%v\nprocess pump\n%v", seed, log, refLog)
		}
		if st.Events != ref.Events || st.HeapHigh != ref.HeapHigh || busy != refBusy {
			t.Fatalf("seed %d: task run %+v busy %v, process run %+v busy %v", seed, st, busy, ref, refBusy)
		}
		if moved := st.Callbacks - ref.Callbacks; moved == 0 || moved != ref.Resumes+ref.Continues-st.Resumes-st.Continues {
			t.Fatalf("seed %d: callbacks rose by %d, resumes+continues fell by %d", seed, moved, ref.Resumes+ref.Continues-st.Resumes-st.Continues)
		}
	}
}

// recoverProcPanic runs f and returns the *ProcPanic it panicked with.
func recoverProcPanic(t *testing.T, f func()) (pp *ProcPanic) {
	t.Helper()
	defer func() {
		r := recover()
		var ok bool
		if pp, ok = r.(*ProcPanic); !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
	}()
	f()
	return nil
}

// TestTaskPutOnClosedQueuePanics: TryPut refuses a closed queue the way
// it refuses a full one, so "TryPut, else WaitPut" must not park on it
// for ever: like Queue.Put it panics, naming the queue, and the panic
// reaches the Run caller tagged with the task.
func TestTaskPutOnClosedQueuePanics(t *testing.T) {
	e := New()
	q := NewQueue[int]("sink", 4)
	q.Close()
	e.GoTask("putter", func(t *Task) {
		if !q.TryPut(1) {
			q.WaitPut(t)
		}
	})
	pp := recoverProcPanic(t, e.Run)
	if pp.Proc != "putter" || pp.Value != "sim: Put on closed queue sink" {
		t.Fatalf("ProcPanic = {%q %v}, want {putter, sim: Put on closed queue sink}", pp.Proc, pp.Value)
	}
}

// TestTaskStepPanicReachesRunAsProcPanic: a panic in a step — the first
// or a later one, under Run or under Step — reaches the caller as
// *ProcPanic carrying the task's name, a plain callback's panic still
// arrives as it is, and the engine runs on afterwards.
func TestTaskStepPanicReachesRunAsProcPanic(t *testing.T) {
	e := New()
	steps := 0
	e.GoTask("folder", func(t *Task) {
		if steps++; steps == 2 {
			panic("fold failed")
		}
		e.Schedule(1, t.Step)
	})
	survived := false
	e.Go("survivor", func(p *Proc) { p.Hold(10); survived = true })
	pp := recoverProcPanic(t, e.Run)
	if pp.Proc != "folder" || pp.Value != "fold failed" || e.Now() != 1 {
		t.Fatalf("ProcPanic = {%q %v} at t=%v, want {folder, fold failed} at t=1", pp.Proc, pp.Value, e.Now())
	}

	e.GoTask("stepped", func(*Task) { panic(42) })
	pp = recoverProcPanic(t, func() {
		for e.Step() {
		}
	})
	if pp.Proc != "stepped" || pp.Value != 42 {
		t.Fatalf("ProcPanic = {%q %v}, want {stepped 42}", pp.Proc, pp.Value)
	}

	e.Schedule(0, func() { panic("bare") })
	func() {
		defer func() {
			if r := recover(); r != "bare" {
				t.Fatalf("a callback's panic arrived as %v, want it untouched", r)
			}
		}()
		e.Run()
	}()
	e.Run()
	if !survived || e.Now() != 10 {
		t.Fatalf("after three recovered panics: survivor finished = %v at t=%v", survived, e.Now())
	}
}

// TestTasksHoldNoGoroutine: a parked task is a closure on a wait-list. It
// never costs a goroutine, Shutdown has nothing to stop, and once the
// caller lets go of the engine and the queue nothing keeps the task's
// state alive.
func TestTasksHoldNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	q := NewQueue[int]("never", 0)
	state := new([1 << 16]byte)
	freed := make(chan struct{})
	runtime.SetFinalizer(state, func(*[1 << 16]byte) { close(freed) })
	e.GoTask("parked", func(t *Task) {
		state[0]++
		q.WaitGet(t)
	})
	e.Run()
	if got := runtime.NumGoroutine(); got > base || state[0] != 1 {
		t.Fatalf("%d goroutines with a task parked after %d steps, started with %d", got, state[0], base)
	}
	e.Shutdown()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("GoTask after Shutdown did not panic")
			}
		}()
		e.GoTask("late", func(*Task) {})
	}()
	e, q, state = nil, nil, nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(50 * time.Millisecond): // the finalizer runs on its own goroutine
		}
	}
	t.Fatal("a parked task's state outlived its engine and queue")
}
