package sim

import "testing"

// BenchmarkEngineScheduleRun measures the raw event-loop hot path: push
// and pop through the concrete min-heap with a trivial callback. This is
// the path every simulated second of every experiment goes through.
func BenchmarkEngineScheduleRun(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < batch; j++ {
			e.Schedule(float64(j%17), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineNestedSchedule measures a self-rescheduling event chain
// (the timer-wheel pattern meters and pumps use): heap stays small while
// events flow through it continuously.
func BenchmarkEngineNestedSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 4096 {
				e.Schedule(1, tick)
			}
		}
		e.Schedule(1, tick)
		e.Run()
	}
}

// BenchmarkEngineProcHold measures process context switching: Hold is the
// most frequent blocking primitive (every Server.Process ends in one).
func BenchmarkEngineProcHold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		e.Go("holder", func(p *Proc) {
			for j := 0; j < 512; j++ {
				p.Hold(1)
			}
		})
		e.Run()
	}
}

// BenchmarkQueueProducerConsumer measures the bounded-queue ring under
// backpressure: one producer and one consumer exchanging 4096 items
// through a capacity-16 ring, the exchange pattern of every operator
// pipeline in pstore.
func BenchmarkQueueProducerConsumer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		q := NewQueue[int]("bench", 16)
		e.Go("producer", func(p *Proc) {
			for j := 0; j < 4096; j++ {
				q.Put(p, j)
			}
			q.Close()
		})
		e.Go("consumer", func(p *Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
		e.Run()
	}
}

// BenchmarkQueueTaskConsumer is BenchmarkQueueProducerConsumer with the
// consumer as a task: the same 4096 items through the same capacity-16
// ring and the same events, the consumer's now callbacks on the root
// instead of switches into a coroutine. The difference between the two
// is what moving one pump off a process saves.
func BenchmarkQueueTaskConsumer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		q := NewQueue[int]("bench", 16)
		e.Go("producer", func(p *Proc) {
			for j := 0; j < 4096; j++ {
				q.Put(p, j)
			}
			q.Close()
		})
		e.GoTask("consumer", func(t *Task) {
			for {
				var v int
				if !q.TryGet(&v) {
					if !q.Closed() {
						q.WaitGet(t)
					}
					return
				}
			}
		})
		e.Run()
	}
}

// BenchmarkServerProcess measures FCFS rate-server booking plus the
// scheduler round trip per job.
func BenchmarkServerProcess(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		s := NewServer(e, "cpu", 1e6)
		e.Go("worker", func(p *Proc) {
			for j := 0; j < 512; j++ {
				s.Process(p, 1000)
			}
		})
		e.Run()
	}
}
