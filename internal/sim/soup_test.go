package sim

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// soupGolden is the SHA-256 of the soup's (time, name, op) log as
// produced by the channel-handoff kernel at commit 5db2a69, the parent of
// the coroutine rewrite, and by the coroutine kernel at commit 0c48017
// (both with only this file's TryGet calls and event counter adapted to
// their API). TestDeterminismProperty only compares a run with itself;
// this compares the kernel with its predecessors, so a control transfer
// that reorders two same-time events — or a Shutdown that releases in
// another order — fails here.
const soupGolden = "4b1ef8ba2229ea9bad91bb3605c95f9d45eb9cb857c41a7f66f17240cd6c0e33"

// TestSoupOrderMatchesParentKernel runs a seeded soup of ~50 processes
// over every blocking primitive, a Halt and two more Runs each ended by a
// callback that halts at a set time, then Shutdown, and hashes what
// happened in the order it happened. The processes draw
// their next step from one shared generator while they run, so a single
// swapped pair of events changes every draw after it.
func TestSoupOrderMatchesParentKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	e := New()
	h := sha256.New()
	lines := 0
	log := func(name, op string) {
		lines++
		fmt.Fprintf(h, "%.9f %s %s\n", e.Now(), name, op)
	}

	queues := []*Queue[int]{NewQueue[int]("q1", 1), NewQueue[int]("q4", 4), NewQueue[int]("q0", 0)}
	servers := []*Server{NewServer(e, "cpu", 1e3), NewServer(e, "disk", 2e2)}
	var done WaitGroup
	var gate Event
	children := 0

	var body func(name string, steps int) func(p *Proc)
	body = func(name string, steps int) func(p *Proc) {
		return func(p *Proc) {
			defer log(name, "exit")
			defer done.Done()
			log(name, "start")
			for i := 0; i < steps; i++ {
				q := queues[rng.Intn(len(queues))]
				switch op := rng.Intn(10); op {
				case 0:
					p.Hold(0)
					log(name, "hold0")
				case 1:
					p.Hold(float64(rng.Intn(20)) * 1e-3)
					log(name, "hold")
				case 2:
					p.HoldUntil(p.Now() + float64(rng.Intn(3))*1e-3)
					log(name, "until")
				case 3, 4:
					q.Put(p, i)
					log(name, "put "+q.name)
				case 5, 6:
					v, ok := q.Get(p)
					log(name, fmt.Sprintf("get %s %d %v", q.name, v, ok))
				case 7:
					var v int
					ok := q.TryGet(&v)
					log(name, fmt.Sprintf("tryget %s %d %v", q.name, v, ok))
				case 8:
					s := servers[rng.Intn(len(servers))]
					if rng.Intn(4) == 0 {
						s.ProcessAsync(float64(rng.Intn(5)), func() { log(name, "async "+s.name) })
					} else {
						s.Process(p, float64(rng.Intn(5)))
						log(name, "process "+s.name)
					}
				case 9:
					if children < 10 && rng.Intn(2) == 0 {
						children++
						child := fmt.Sprintf("%s.%d", name, children)
						done.Add(1)
						e.Go(child, body(child, 8))
						log(name, "spawn "+child)
					} else {
						gate.Wait(p)
						log(name, "gate")
					}
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("p%02d", i)
		done.Add(1)
		e.Go(name, body(name, 12+rng.Intn(24)))
	}
	e.Go("joiner", func(p *Proc) {
		defer log("joiner", "exit")
		done.Wait(p)
		log("joiner", "joined")
	})
	// The pump keeps the soup moving: it feeds starved getters and drains
	// stuck putters, so most processes reach their exit.
	ticks := 0
	Periodic(e, "pump", 5e-3, func(p *Proc) bool {
		ticks++
		for _, q := range queues {
			if v := 0; q.TryGet(&v) {
				log("pump", fmt.Sprintf("drain %s %d", q.name, v))
			} else if q.TryPut(-ticks) {
				log("pump", "feed "+q.name)
			}
		}
		return ticks < 400
	})
	// Left parked for Shutdown, whose release order is part of the log.
	never := NewQueue[int]("never", 0)
	for i := 0; i < 5; i++ {
		i, name := i, fmt.Sprintf("stuck%d", i)
		e.Go(name, func(p *Proc) {
			defer log(name, "unwound")
			p.Hold(float64(5-i) * 1e-3)
			if i%2 == 0 {
				never.Get(p)
			} else {
				p.Hold(100)
			}
		})
	}
	e.Schedule(30e-3, func() { log("cb", "fire"); gate.Fire() })
	e.Schedule(50e-3, func() { log("cb", "halt"); e.Halt() })

	e.Run()
	log("root", fmt.Sprintf("halted events=%d", e.stats.Events))
	e.At(0.4, func() { log("cb", "halt"); e.Halt() })
	e.Run()
	log("root", fmt.Sprintf("until events=%d", e.stats.Events))
	e.At(3, func() { log("cb", "halt"); e.Halt() })
	e.Run()
	log("root", fmt.Sprintf("drained events=%d", e.stats.Events))
	e.Shutdown()
	log("root", "down")

	if lines < 1500 {
		t.Fatalf("soup logged only %d lines: it no longer exercises the kernel", lines)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != soupGolden {
		t.Fatalf("soup log hash (%d lines) = %s, want %s: event order differs from the parent kernel", lines, got, soupGolden)
	}
}
