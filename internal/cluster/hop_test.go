package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

// hopRig is the exchange's task path, as a join's ship and consumer tasks
// drive it: k sender tasks on nodes 1..k, each handing one-batch messages
// to TrySend (egress port, node 0's inbox, its ingress pump) for one
// mailbox on node 0, whose consumer task drains it with TryRecvManyInto
// in groups of up to 64. No sender sends EOS, so the rig can be run again.
type hopRig struct {
	c       *Cluster
	senders []*sim.Task
	quota   int // messages each sender has sent once the next run ends
	recv    int // batches the consumer has received
}

func newHopRig(tb testing.TB, k int) *hopRig {
	tb.Helper()
	c, err := New(Homogeneous(k+1, hw.BeefyL5630()))
	if err != nil {
		tb.Fatal(err)
	}
	r := &hopRig{c: c}
	mb := NewMailbox("hop", k, 8)
	var group []storage.Batch
	c.Eng.GoTask("hop.cons", func(t *sim.Task) {
		for {
			if group = mb.TryRecvManyInto(group[:0], 64); len(group) == 0 {
				mb.Wait(t)
				return
			}
			r.recv += len(group)
		}
	})
	for s := 1; s <= k; s++ {
		proto := Message{From: s, To: 0, Batch: storage.Batch{Rows: 1000, Width: 20}, Dest: mb}
		var sent int
		var paid bool
		r.senders = append(r.senders, c.Eng.GoTask(fmt.Sprintf("hop.send%d", s), func(t *sim.Task) {
			for ; sent < r.quota; sent++ {
				// A fresh variable per attempt: it stays on the stack
				// only while TrySend lets no *Message escape.
				msg := proto
				if !c.TrySend(t, &msg, &paid) {
					return
				}
			}
		}))
	}
	c.Run()
	return r
}

// hop has every sender send n more messages and runs the simulation until
// the consumer has received them all.
func (r *hopRig) hop(tb testing.TB, n int) {
	r.quota += n
	for _, s := range r.senders {
		r.c.Eng.At(r.c.Eng.Now(), s.Step)
	}
	r.c.Run()
	if want := r.quota * len(r.senders); r.recv != want {
		tb.Fatalf("consumer received %d batches, want %d", r.recv, want)
	}
}

// BenchmarkExchangeHop is the per-layer number for the exchange: what one
// message costs the simulator from TrySend to TryRecvManyInto, with four
// senders sharing one ingress port and one mailbox. One op is one message
// from each sender; ns/msg and allocs/msg are per message.
func BenchmarkExchangeHop(b *testing.B) {
	const k = 4
	r := newHopRig(b, k)
	defer r.c.Stop()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	r.hop(b, b.N)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	msgs := float64(k * b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
}

// TestExchangeHopAllocatesNothing: once the wait-lists and the event
// arrays have grown to their high-water mark, a message crosses the
// exchange without allocating — no Message, and no pointer to one,
// escapes to the heap on the way.
func TestExchangeHopAllocatesNothing(t *testing.T) {
	r := newHopRig(t, 4)
	defer r.c.Stop()
	r.hop(t, 64)
	if a := testing.AllocsPerRun(20, func() { r.hop(t, 64) }); a != 0 {
		t.Fatalf("256 messages across the exchange allocate %v times, want 0", a)
	}
}
