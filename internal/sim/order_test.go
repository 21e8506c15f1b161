package sim

import (
	"math/rand"
	"testing"
)

// TestEventHeapPopsInOrder is the property test for the bottom-up binary
// event heap: under random interleaved push/pop — including heavy timestamp
// ties, where only seq breaks the order — every pop must return exactly
// the (at, seq)-minimum of the heap's current contents, verified against
// a brute-force reference model.
func TestEventHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		h := eventHeap{}
		var model []event // unordered mirror of the heap's contents
		var seq uint64
		for op := 0; op < 2000; op++ {
			if len(model) == 0 || rng.Intn(3) > 0 {
				seq++
				// Few distinct timestamps force seq tie-breaking; pushes
				// arrive in arbitrary time order.
				ev := event{at: float64(rng.Intn(8)), seq: seq}
				h.push(ev)
				model = append(model, ev)
			} else {
				got := h.pop()
				min := 0
				for i, ev := range model {
					if ev.at < model[min].at || (ev.at == model[min].at && ev.seq < model[min].seq) {
						min = i
					}
				}
				if got.at != model[min].at || got.seq != model[min].seq {
					t.Fatalf("trial %d op %d: pop = (%v,%d), want min (%v,%d)",
						trial, op, got.at, got.seq, model[min].at, model[min].seq)
				}
				model[min] = model[len(model)-1]
				model = model[:len(model)-1]
			}
		}
		// Drain: pops must come out in strictly increasing (at, seq).
		var last event
		for i := 0; len(model) > 0; i++ {
			got := h.pop()
			if i > 0 && (got.at < last.at || (got.at == last.at && got.seq <= last.seq)) {
				t.Fatalf("trial %d drain %d: (%v,%d) after (%v,%d)",
					trial, i, got.at, got.seq, last.at, last.seq)
			}
			last = got
			model = model[:len(model)-1]
		}
	}
}

// TestEngineExecutesInAtSeqOrder checks the user-visible ordering
// guarantee end to end, exercising both the heap and the at-now fast
// path ring: callbacks run in strict (time, schedule-order) sequence,
// including events scheduled at the current timestamp from inside other
// events.
func TestEngineExecutesInAtSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New()
	type stamp struct {
		at Time
		id int
	}
	var order []stamp
	n := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		id := n
		n++
		e.At(at, func() {
			order = append(order, stamp{at, id})
			// Half the events spawn follow-ups: some at the current time
			// (ring fast path), some later (heap).
			if n < 3000 && rng.Intn(2) == 0 {
				if rng.Intn(2) == 0 {
					schedule(e.Now()) // at-now: must run after queued now-events
				} else {
					schedule(e.Now() + float64(rng.Intn(5)))
				}
			}
		})
	}
	for i := 0; i < 200; i++ {
		schedule(float64(rng.Intn(10)))
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("executed %d of %d events", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if b.at < a.at || (b.at == a.at && b.id < a.id) {
			t.Fatalf("event %d=(t=%v,id=%d) ran after %d=(t=%v,id=%d)",
				i, b.at, b.id, i-1, a.at, a.id)
		}
	}
}

// TestHoldZeroYieldsFairly pins the fairness contract the fast path must
// preserve: a zero-second Hold runs events already queued at the current
// time before the holder resumes.
func TestHoldZeroYieldsFairly(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Hold(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
		p.Hold(0)
		order = append(order, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
