package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(2, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(3, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestScheduleTieBreakBySequence(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", order)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(5, func() { ran++ })
	e.RunUntil(3)
	if ran != 1 {
		t.Fatalf("ran %d events by t=3, want 1", ran)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestHalt(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(1, func() { ran++; e.Halt() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("halt did not stop run: ran=%d", ran)
	}
	if e.Now() != 1 {
		t.Fatalf("halted at t=%v, want the halting event's time 1", e.Now())
	}
	// A second Run resumes the events Halt left queued.
	e.Run()
	if ran != 2 || e.Now() != 2 {
		t.Fatalf("resumed run: ran=%d now=%v, want 2 and 2", ran, e.Now())
	}
}

func TestProcHold(t *testing.T) {
	e := New()
	var times []Time
	e.Go("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Hold(1.5)
		times = append(times, p.Now())
		p.Hold(0.5)
		times = append(times, p.Now())
	})
	e.Run()
	want := []Time{0, 1.5, 2.0}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Hold(1)
		order = append(order, "a1")
		p.Hold(2)
		order = append(order, "a3")
	})
	e.Go("b", func(p *Proc) {
		p.Hold(2)
		order = append(order, "b2")
	})
	e.Run()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b2" || order[2] != "a3" {
		t.Fatalf("interleaving %v, want [a1 b2 a3]", order)
	}
}

func TestQueueFIFOAndClose(t *testing.T) {
	e := New()
	q := NewQueue[int]("q", 0)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
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
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("consumed %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO order violated: %v", got)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	e := New()
	q := NewQueue[int]("q", 2)
	var putDone Time
	e.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until consumer drains one
		putDone = p.Now()
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		p.Hold(10)
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			p.Hold(1)
		}
	})
	e.Run()
	if putDone < 10 {
		t.Fatalf("third Put completed at t=%v, want >= 10 (backpressure)", putDone)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	e := New()
	q := NewQueue[string]("q", 0)
	var gotAt Time
	e.Go("consumer", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok || v != "x" {
			t.Errorf("Get = %q,%v", v, ok)
		}
		gotAt = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Hold(7)
		q.Put(p, "x")
	})
	e.Run()
	if gotAt != 7 {
		t.Fatalf("consumer resumed at %v, want 7", gotAt)
	}
}

func TestServerFCFSLatency(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 100) // 100 units/sec
	var done1, done2 Time
	e.Go("a", func(p *Proc) {
		s.Process(p, 500) // 5s
		done1 = p.Now()
	})
	e.Go("b", func(p *Proc) {
		s.Process(p, 300) // queued behind a: completes at 8s
		done2 = p.Now()
	})
	e.Run()
	if math.Abs(done1-5) > 1e-9 || math.Abs(done2-8) > 1e-9 {
		t.Fatalf("completions = %v, %v; want 5, 8", done1, done2)
	}
}

// TestServerObserve: the observer sees each booking with positive
// duration as its busy interval, in booking order — zero-size work and
// stalls report nothing — and a second observer is refused.
func TestServerObserve(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 10)
	var got [][2]Time
	s.Observe(func(start, end Time) { got = append(got, [2]Time{start, end}) })
	e.Go("a", func(p *Proc) {
		p.Hold(1)
		s.Process(p, 20) // busy [1,3)
		s.Process(p, 0)
		s.StallUntil(5)
		s.ProcessAsync(10, nil) // busy [5,6)
		s.ProcessAsync(10, nil) // busy [6,7), queued behind it
	})
	e.Run()
	want := [][2]Time{{1, 3}, {5, 6}, {6, 7}}
	if !slices.Equal(got, want) {
		t.Fatalf("observed %v, want %v", got, want)
	}
	if got := s.BusySeconds(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("BusySeconds = %v, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second observer accepted")
		}
	}()
	s.Observe(func(start, end Time) {})
}

// TestUnobservedServerBooksWithoutAllocating: a server with no meter
// keeps no busy history, so booking work allocates nothing however many
// separate busy intervals it makes (a growing history would reallocate
// about once per run of 10 000 bookings).
func TestUnobservedServerBooksWithoutAllocating(t *testing.T) {
	e := New()
	s := NewServer(e, "disk", 1)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10_000; i++ {
			s.StallUntil(s.free + 1) // a gap: each booking is its own interval
			s.ProcessAsync(1, nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("unobserved booking allocates %v times, want 0", allocs)
	}
}

// TestWaitGroupBarrier: the barrier releases its waiter when the last
// worker is done, and the task form (WaitTask) costs the events Wait
// costs, at the same (time, seq).
func TestWaitGroupBarrier(t *testing.T) {
	var stats [2]Stats
	for i, asTask := range []bool{false, true} {
		e := New()
		var wg WaitGroup
		wg.Add(3)
		var doneAt Time
		for i := 1; i <= 3; i++ {
			d := float64(i)
			e.Go("worker", func(p *Proc) {
				p.Hold(d)
				wg.Done()
			})
		}
		if asTask {
			e.GoTask("waiter", func(t *Task) {
				if wg.WaitTask(t) {
					doneAt = e.Now()
				}
			})
		} else {
			e.Go("waiter", func(p *Proc) {
				wg.Wait(p)
				doneAt = p.Now()
			})
		}
		e.Run()
		if doneAt != 3 {
			t.Fatalf("task %v: barrier released at %v, want 3", asTask, doneAt)
		}
		stats[i] = e.Stats()
	}
	if p, k := stats[0], stats[1]; p.Events != k.Events || p.Hash != k.Hash || k.Callbacks != p.Callbacks+2 {
		t.Fatalf("process waiter %+v, task waiter %+v: want the same events, two of them callbacks", p, k)
	}
}

func TestEventBroadcast(t *testing.T) {
	e := New()
	ev := &Event{}
	released := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			ev.Wait(p)
			released++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Hold(2)
		ev.Fire()
	})
	e.Run()
	if released != 4 {
		t.Fatalf("released %d waiters, want 4", released)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := New()
	ev := &Event{}
	ev.Fire()
	ok := false
	e.Go("w", func(p *Proc) {
		ev.Wait(p) // must not block
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("Wait after Fire blocked")
	}
}

// Property: a server processing n jobs of random sizes is busy for exactly
// sum(sizes)/rate seconds, regardless of submission pattern.
func TestServerBusyConservationProperty(t *testing.T) {
	f := func(sizes []uint16, gaps []uint8) bool {
		e := New()
		s := NewServer(e, "cpu", 50)
		want := 0.0
		e.Go("driver", func(p *Proc) {
			for i, sz := range sizes {
				if i < len(gaps) {
					p.Hold(float64(gaps[i]) / 10)
				}
				s.Process(p, float64(sz))
				want += float64(sz) / 50
			}
		})
		e.Run()
		return math.Abs(s.BusySeconds()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation runs are deterministic — same program, same event
// trace length and final clock.
func TestDeterminismProperty(t *testing.T) {
	run := func() (Time, uint64) {
		e := New()
		q := NewQueue[int]("q", 3)
		s := NewServer(e, "srv", 7)
		for i := 0; i < 5; i++ {
			i := i
			e.Go("prod", func(p *Proc) {
				for j := 0; j < 10; j++ {
					s.Process(p, float64(i+j))
					q.Put(p, j)
				}
			})
		}
		e.Go("cons", func(p *Proc) {
			for k := 0; k < 50; k++ {
				q.Get(p)
				p.Hold(0.1)
			}
		})
		e.Run()
		return e.Now(), e.stats.Events
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 || n1 != n2 {
		t.Fatalf("nondeterministic run: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	e := New()
	last := Time(0)
	violated := false
	for i := 0; i < 200; i++ {
		d := float64((i*37)%11) / 3
		e.Schedule(d, func() {
			if e.Now() < last {
				violated = true
			}
			last = e.Now()
		})
	}
	e.Run()
	if violated {
		t.Fatal("clock went backwards")
	}
}

// TestServerSetRateAffectsFutureBookingsOnly: work already booked keeps
// its completion time; work booked after the change sees the new rate.
func TestServerSetRateAffectsFutureBookingsOnly(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 100)
	var done1, done2 Time
	e.Go("a", func(p *Proc) {
		s.Process(p, 500) // booked at rate 100: completes at 5
		done1 = p.Now()
	})
	e.Go("slowdown", func(p *Proc) {
		p.Hold(1)
		s.SetRate(50)     // halve the rate mid-queue
		s.Process(p, 100) // queued behind a: 5 + 100/50 = 7
		done2 = p.Now()
	})
	e.Run()
	if math.Abs(done1-5) > 1e-9 || math.Abs(done2-7) > 1e-9 {
		t.Fatalf("completions = %v, %v; want 5, 7", done1, done2)
	}
	if s.Rate() != 50 {
		t.Fatalf("rate = %v, want 50", s.Rate())
	}
}

// TestServerSetRateRejectsNonPositive: zero, negative, NaN and Inf
// rates all panic — a zero rate is a stall, not a rate.
func TestServerSetRateRejectsNonPositive(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 1)
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRate(%v) did not panic", r)
				}
			}()
			s.SetRate(r)
		}()
	}
}

// TestServerStallUntil: a stalled server delays new work to the stall
// time without booking busy seconds (meters see the outage as idle),
// and never shortens an existing queue.
func TestServerStallUntil(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 100)
	var done Time
	e.Go("a", func(p *Proc) {
		s.StallUntil(4)
		s.Process(p, 100) // starts at 4, completes at 5
		done = p.Now()
	})
	e.Run()
	if math.Abs(done-5) > 1e-9 {
		t.Fatalf("completion = %v, want 5", done)
	}
	if got := s.BusySeconds(); got != 1 {
		t.Fatalf("stall booked %v busy seconds, want only the 1 s of work", got)
	}
	// A stall earlier than the queue's end is a no-op.
	s.StallUntil(2)
	if s.free != 5 {
		t.Fatalf("backdated stall moved the free time to %v", s.free)
	}
}
