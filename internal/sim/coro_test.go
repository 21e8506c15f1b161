package sim

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInvalidTimesAndWorkPanic: a NaN fails every ordering comparison, so
// one that reached the heap would end every later Run before its first
// event, and one booked on a server would turn busy time — and joules —
// into NaN. A +Inf time is never reached, yet Run would advance the clock
// to it, and a meter would then integrate windows forever. All the ways
// in must panic, naming what was called.
func TestInvalidTimesAndWorkPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	inProc := func(body func(e *Engine, p *Proc)) func() {
		return func() {
			e := New()
			e.Go("worker", func(p *Proc) { body(e, p) })
			e.Run()
		}
	}
	cases := []struct {
		name string
		call func()
		want []string
	}{
		{"Engine.At", func() { New().At(nan, func() {}) }, []string{"At(NaN)"}},
		{"Proc.HoldUntil", inProc(func(e *Engine, p *Proc) { p.HoldUntil(nan) }), []string{"worker", "HoldUntil(NaN)"}},
		{"Proc.Hold", inProc(func(e *Engine, p *Proc) { p.Hold(nan) }), []string{"worker", "Hold", "NaN"}},
		{"Server.Process", inProc(func(e *Engine, p *Proc) { NewServer(e, "cpu", 1).Process(p, nan) }), []string{`"cpu"`, "NaN"}},
		{"Engine.At/Inf", func() { New().At(inf, func() {}) }, []string{"At(+Inf)"}},
		{"Engine.Schedule/Inf", func() { New().Schedule(inf, func() {}) }, []string{"Schedule", "+Inf"}},
		{"Proc.HoldUntil/Inf", inProc(func(e *Engine, p *Proc) { p.HoldUntil(inf) }), []string{"worker", "HoldUntil(+Inf)"}},
		{"Proc.Hold/Inf", inProc(func(e *Engine, p *Proc) { p.Hold(inf) }), []string{"worker", "Hold", "+Inf"}},
		{"Server.ProcessAsync/Inf", func() { NewServer(New(), "cpu", 1).ProcessAsync(inf, nil) }, []string{`"cpu"`, "+Inf"}},
		{"Server.Process/overflow", inProc(func(e *Engine, p *Proc) { NewServer(e, "cpu", 0.5).Process(p, 1e308) }), []string{`"cpu"`, "1e+308"}},
		{"Engine.At/beyond MaxTime", func() { New().At(2*MaxTime, func() {}) }, []string{"At(2e+07)", "MaxTime"}},
		{"Proc.Hold/beyond MaxTime", inProc(func(e *Engine, p *Proc) { p.Hold(1e300) }), []string{"worker", "At(1e+300)", "MaxTime"}},
		{"Server.Process/beyond MaxTime", inProc(func(e *Engine, p *Proc) { NewServer(e, "cpu", 1).Process(p, 1e300) }), []string{"worker", "At(1e+300)", "MaxTime"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if pp, ok := r.(*ProcPanic); ok {
					r = pp.Error()
				}
				msg, _ := r.(string)
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Fatalf("panic %q does not mention %q", msg, w)
					}
				}
				if strings.Contains(msg, "Schedule") != strings.Contains(tc.name, "Schedule") {
					t.Fatalf("panic %q blames Schedule", msg)
				}
			}()
			tc.call()
			t.Fatal("invalid value accepted")
		})
	}

	// What the NaN used to do: nothing at all ran.
	e := New()
	ran := 0
	func() {
		defer func() { recover() }()
		e.At(nan, func() { ran++ })
	}()
	e.At(1, func() { ran++ })
	e.At(2, func() { ran++ })
	e.Run()
	if ran != 2 || e.Now() != 2 {
		t.Fatalf("ran %d callbacks to t=%v after a rejected NaN, want 2 to t=2", ran, e.Now())
	}
}

// TestStatsCountEveryEventOnce pins the counters on a run small enough
// to count by hand, and the flush to the process-wide totals from a first
// and a second Run.
func TestStatsCountEveryEventOnce(t *testing.T) {
	before := TotalStats()
	e := New()
	q := NewQueue[int]("q", 1)
	e.Go("producer", func(p *Proc) { // start, 3 x 2 holds
		for i := 0; i < 3; i++ {
			p.Hold(1) // the consumer's start or wake is due first: yields
			p.Hold(1) // nothing else is pending: continues
			q.Put(p, i)
		}
	})
	e.Go("consumer", func(p *Proc) { // start, 3 wakes
		for i := 0; i < 3; i++ {
			q.Get(p)
		}
	})
	e.Schedule(10, func() {})
	e.Schedule(10, func() {})
	// A task's events are callbacks: its start, a wake off a queue, the end
	// of a server booking and the wake by Close — plus the two callbacks
	// that put and close.
	tq, srv, served := NewQueue[int]("tq", 1), NewServer(e, "srv", 1), 0
	e.GoTask("task", func(t *Task) {
		if v := 0; tq.TryGet(&v) {
			served += v
			srv.ProcessAsync(5, t.Step)
		} else if !tq.Closed() {
			tq.WaitGet(t)
		}
	})
	e.Schedule(20, func() { tq.TryPut(7) })
	e.Schedule(30, tq.Close)
	e.Run()
	if served != 7 || e.Now() != 30 || srv.BusySeconds() != 5 {
		t.Fatalf("task served %d, clock %v, server busy %v s; want 7, 30, 5", served, e.Now(), srv.BusySeconds())
	}
	want := Stats{Events: 19, Resumes: 8, Continues: 3, Callbacks: 8, HeapHigh: 5, Hash: 7135333715569972480}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if e.stats.Events != want.Events {
		t.Fatalf("Events() = %d, want %d", e.stats.Events, want.Events)
	}

	e.Schedule(1, func() {})
	e.Run()
	e.Shutdown()
	after := TotalStats()
	if after.Events-before.Events != 20 || after.Resumes-before.Resumes != 8 ||
		after.Continues-before.Continues != 3 || after.Callbacks-before.Callbacks != 9 {
		t.Fatalf("process-wide totals moved %+v -> %+v, want +20 events (+1 from the second Run), +8 resumes, +3 continues, +9 callbacks", before, after)
	}
	if after.Hash-before.Hash != e.Stats().Hash {
		t.Fatalf("process-wide hash moved by %#x, the engine's is %#x", after.Hash-before.Hash, e.Stats().Hash)
	}
	if TotalEvents() != after.Events || after.HeapHigh < want.HeapHigh {
		t.Fatalf("TotalEvents() = %d, TotalStats() = %+v", TotalEvents(), after)
	}
}

// TestEventHashFoldsTimeAndOrder: Stats.Hash folds each executed event's
// (time, seq) in execution order, so it tells apart runs of equal event
// counts whose events differ in time or order, and the process-wide total
// is the sum of the engines' hashes whatever order they ran in.
func TestEventHashFoldsTimeAndOrder(t *testing.T) {
	run := func(times ...Time) uint64 {
		e := New()
		for _, at := range times {
			e.At(at, func() {})
		}
		e.Run()
		return e.Stats().Hash
	}
	fold := func(h uint64, at Time, seq uint64) uint64 {
		return (h ^ math.Float64bits(at) ^ seq) * 0x9e3779b97f4a7c15
	}
	if got, want := run(1, 2), fold(fold(0, 1, 1), 2, 2); got != want {
		t.Fatalf("hash %#x, want %#x", got, want)
	}
	if run(1, 2) != run(1, 2) {
		t.Fatal("equal runs hash differently")
	}
	base := run(1, 2, 2)
	for _, other := range [][]Time{{2, 1, 2}, {1, 2, math.Nextafter(2, 3)}, {1, 2}} {
		if run(other...) == base {
			t.Fatalf("events at %v hash like events at [1 2 2]", other)
		}
	}
	before := TotalStats().Hash
	a, b := run(3, 1), run(0.5)
	mid := TotalStats().Hash
	run(0.5)
	run(3, 1)
	if after := TotalStats().Hash; mid-before != a+b || after-mid != a+b {
		t.Fatalf("process-wide hash moved by %#x, then by %#x in the other order; want %#x", mid-before, after-mid, a+b)
	}
}

// TestGoexitInBodyEndsRunCaller: runtime.Goexit inside a process body —
// what t.Fatal does — ends the goroutine that called Run (its deferred
// calls run, Run does not return), retires the process, and leaves the
// engine coherent: Shutdown from another goroutine releases the rest and
// no goroutine is left behind.
func TestGoexitInBodyEndsRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	never := NewQueue[int]("never", 0)
	var ran []string
	e.Go("parked", func(p *Proc) {
		defer func() { ran = append(ran, "parked unwound") }()
		never.Get(p)
	})
	e.Go("fatal", func(p *Proc) {
		defer func() { ran = append(ran, "fatal deferred") }()
		p.Hold(1)
		runtime.Goexit()
	})
	e.Go("survivor", func(p *Proc) {
		p.Hold(5)
		ran = append(ran, "survivor finished")
	})
	ended := make(chan struct{})
	returned := false
	go func() {
		defer close(ended)
		e.Run()
		returned = true
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a Goexit in a process body")
	}
	if returned {
		t.Fatal("Run returned: the Goexit did not reach its caller")
	}
	if e.Now() != 1 || len(e.live) != 2 {
		t.Fatalf("t=%v with %d live processes, want t=1 and parked+survivor", e.Now(), len(e.live))
	}
	e.Run()
	e.Shutdown()
	if want := []string{"fatal deferred", "survivor finished", "parked unwound"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	waitGoroutines(t, base)
}

// pingPong runs a producer/consumer pair to completion on e and returns
// the sum the consumer saw.
func pingPong(e *Engine, n int) int {
	q := NewQueue[int]("pp", 2)
	sum := 0
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= n; i++ {
			p.Hold(1)
			q.Put(p, i)
		}
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			sum += v
		}
	})
	e.Run()
	e.Shutdown()
	return sum
}

// TestEnginesConcurrentAndNested: engines share nothing, so two may run
// on two goroutines at once, and one may run to completion inside a
// process body of another (a coroutine switching into coroutines of its
// own). Meaningful under -race.
func TestEnginesConcurrentAndNested(t *testing.T) {
	const n = 500
	want := n * (n + 1) / 2
	var wg sync.WaitGroup
	sums := make([]int, 2)
	for i := range sums {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = pingPong(New(), n)
		}()
	}
	wg.Wait()
	if sums[0] != want || sums[1] != want {
		t.Fatalf("concurrent engines summed %v, want %d each", sums, want)
	}

	outer := New()
	var inner []int
	for i := 0; i < 3; i++ {
		outer.Go("host", func(p *Proc) {
			p.Hold(1)
			inner = append(inner, pingPong(New(), n))
			p.Hold(1)
		})
	}
	outer.Run()
	outer.Shutdown()
	if !slices.Equal(inner, []int{want, want, want}) || outer.Now() != 2 {
		t.Fatalf("nested engines summed %v by t=%v, want 3 x %d by t=2", inner, outer.Now(), want)
	}
}
