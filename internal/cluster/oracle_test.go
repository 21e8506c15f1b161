package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/storage"
)

// refIngressPump is the ingress pump as the process it was before it
// became a task, kept as the reference the task is checked against.
func refIngressPump(n *Node) {
	n.eng.Go(fmt.Sprintf("n%d.rxpump", n.ID), func(p *sim.Proc) {
		for {
			msg, ok := n.inbox.Get(p)
			if !ok {
				return
			}
			if b := msg.Bytes(); b > 0 {
				n.Ingress.Process(p, b)
			}
			msg.Dest.q.Put(p, msg)
		}
	})
}

// newRefCluster is New with refIngressPump as every node's pump.
func newRefCluster(cfg Config) *Cluster {
	eng := sim.New()
	c := &Cluster{Eng: eng}
	for i, spec := range cfg.Specs {
		n := &Node{ID: i, Spec: spec, eng: eng}
		n.CPU = sim.NewServer(eng, fmt.Sprintf("n%d.cpu", i), spec.CPUBandwidth*1e6)
		n.Disk = sim.NewServer(eng, fmt.Sprintf("n%d.disk", i), spec.DiskMBps*1e6)
		n.Egress = sim.NewServer(eng, fmt.Sprintf("n%d.tx", i), spec.NetMBps*1e6)
		n.Ingress = sim.NewServer(eng, fmt.Sprintf("n%d.rx", i), spec.NetMBps*1e6)
		n.Meter = power.NewMeter(eng, n.CPU, spec.Power, spec.UtilFloor)
		n.inbox = sim.NewQueue[Message](fmt.Sprintf("n%d.inbox", i), cfg.InboxCapacity)
		c.Nodes = append(c.Nodes, n)
		refIngressPump(n)
	}
	return c
}

// traffic is one seeded mix: 2–6 nodes with inboxes of 1–8, a mailbox of
// 1–8 and a receiver of its own speed on every node, one or two senders
// per node. A sender's messages go to random nodes — its own included —
// and carry zero to 50k rows; its EOS to each mailbox follows at some
// point after its last batch for it, so EOS markers (zero bytes: no port
// is booked) interleave with the data still in flight.
type traffic struct {
	cfg   Config
	mbCap []int       // by node
	work  []float64   // by node: receiver CPU bytes per received byte
	sends [][]Message // by sender; sender s is on node s % nodes; Dest is filled in by run
}

func newTraffic(seed int64) traffic {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	tr := traffic{cfg: Homogeneous(n, hw.BeefyL5630())}
	tr.cfg.InboxCapacity = 1 + rng.Intn(8)
	for j := 0; j < n; j++ {
		tr.mbCap = append(tr.mbCap, 1+rng.Intn(8))
		tr.work = append(tr.work, float64(rng.Intn(9)))
	}
	tr.sends = make([][]Message, n*(1+rng.Intn(2)))
	for s := range tr.sends {
		from := s % n
		var msgs []Message
		last := make([]int, n) // by destination: how many of msgs precede its EOS at least
		for i, k := 0, 20+rng.Intn(40); i < k; i++ {
			to := rng.Intn(n)
			rows := rng.Intn(50_000)
			if rng.Intn(10) == 0 {
				rows = 0
			}
			// The width names the sender: a delivery can be logged with it.
			msgs = append(msgs, Message{From: from, To: to, Batch: storage.Batch{Rows: rows, Width: 10 + s}})
			last[to] = len(msgs)
		}
		for to := 0; to < n; to++ {
			at := last[to] + rng.Intn(len(msgs)-last[to]+1)
			msgs = append(msgs[:at], append([]Message{{From: from, To: to, EOS: true}}, msgs[at:]...)...)
			for j := range last {
				if last[j] > at {
					last[j]++
				}
			}
		}
		tr.sends[s] = msgs
	}
	return tr
}

type delivery struct {
	at             sim.Time
	from, to, rows int
}

type outcome struct {
	log  []delivery
	st   sim.Stats
	end  sim.Time
	busy []float64 // egress, ingress, CPU of node 0, then of node 1, ...
}

// run plays the traffic. With asTasks the cluster is New's — task pumps —
// and senders and receivers are tasks on TrySend and TryRecvManyInto;
// without, the pumps are refIngressPump and senders and receivers are
// processes on the blocking Send and Recv.
func (tr traffic) run(t *testing.T, asTasks bool) outcome {
	var c *Cluster
	if asTasks {
		var err error
		if c, err = New(tr.cfg); err != nil {
			t.Fatal(err)
		}
	} else {
		c = newRefCluster(tr.cfg)
	}
	defer c.Stop()
	var out outcome
	mbs := make([]*Mailbox, len(c.Nodes))
	for j, n := range c.Nodes {
		j, n := j, n
		mb := NewMailbox(fmt.Sprintf("mb%d", j), len(tr.sends), tr.mbCap[j])
		mbs[j] = mb
		seen := func(b storage.Batch) float64 {
			out.log = append(out.log, delivery{c.Eng.Now(), b.Width - 10, j, b.Rows})
			return b.Bytes() * tr.work[j]
		}
		if asTasks {
			var got []storage.Batch
			c.Eng.GoTask(fmt.Sprintf("recv%d", j), func(t *sim.Task) {
				if got = mb.TryRecvManyInto(got[:0], 1); len(got) > 0 {
					n.CPU.ProcessAsync(seen(got[0]), t.Step)
				} else if !mb.Closed() {
					mb.Wait(t)
				}
			})
		} else {
			c.Eng.Go(fmt.Sprintf("recv%d", j), func(p *sim.Proc) {
				for {
					b, ok := mb.Recv(p)
					if !ok {
						return
					}
					n.CPU.Process(p, seen(b))
				}
			})
		}
	}
	for s, msgs := range tr.sends {
		msgs := append([]Message(nil), msgs...)
		for i := range msgs {
			msgs[i].Dest = mbs[msgs[i].To]
		}
		if asTasks {
			var sent int
			var paid bool
			c.Eng.GoTask(fmt.Sprintf("send%d", s), func(t *sim.Task) {
				for ; sent < len(msgs); sent++ {
					if !c.TrySend(t, msgs[sent], &paid) {
						return
					}
				}
			})
		} else {
			c.Eng.Go(fmt.Sprintf("send%d", s), func(p *sim.Proc) {
				for _, m := range msgs {
					c.Send(p, m)
				}
			})
		}
	}
	c.Run()
	for j, mb := range mbs {
		if !mb.Closed() {
			t.Fatalf("mailbox %d still open at the end of the run (asTasks=%v)", j, asTasks)
		}
	}
	out.st, out.end = c.Eng.Stats(), c.Eng.Now()
	for _, n := range c.Nodes {
		out.busy = append(out.busy, n.Egress.BusySeconds(), n.Ingress.BusySeconds(), n.CPU.BusySeconds())
	}
	return out
}

// TestTaskPumpAndTrySendMatchProcessForms: the task pump and TrySend do to
// the simulation exactly what the process pump and the blocking Send do —
// the same deliveries at the same times, the same number of events, the
// same busy seconds on every port and CPU — on traffic that exercises
// local and remote sends, full inboxes and mailboxes, and interleaved EOS.
func TestTaskPumpAndTrySendMatchProcessForms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		tr := newTraffic(seed)
		ref, got := tr.run(t, false), tr.run(t, true)
		batches := 0
		for _, msgs := range tr.sends {
			batches += len(msgs) - len(tr.cfg.Specs)
		}
		if len(ref.log) != batches {
			t.Fatalf("seed %d: reference delivered %d of %d batches", seed, len(ref.log), batches)
		}
		if !reflect.DeepEqual(got.log, ref.log) {
			for i := range ref.log {
				if i >= len(got.log) || got.log[i] != ref.log[i] {
					t.Fatalf("seed %d: delivery %d of %d: tasks %+v, processes %+v", seed, i, len(ref.log), got.log[i:min(i+1, len(got.log))], ref.log[i])
				}
			}
			t.Fatalf("seed %d: tasks delivered %d batches, processes %d", seed, len(got.log), len(ref.log))
		}
		if got.st.Events != ref.st.Events || got.end != ref.end || !reflect.DeepEqual(got.busy, ref.busy) {
			t.Fatalf("seed %d: tasks %+v to t=%v busy %v\nprocesses %+v to t=%v busy %v", seed, got.st, got.end, got.busy, ref.st, ref.end, ref.busy)
		}
		if got.st.Resumes+got.st.Continues != 0 || got.st.Callbacks-ref.st.Callbacks != ref.st.Resumes+ref.st.Continues {
			t.Fatalf("seed %d: tasks %+v, processes %+v: callbacks must rise by what resumes and continues fall", seed, got.st, ref.st)
		}
	}
}

// TestParkedTasksRetainNothing: the ingress pumps of a cluster that ran
// are parked on empty inboxes. They are closures on wait-lists, not
// goroutines: the run leaves none behind, and after Stop a cluster the
// caller lets go of is collected.
func TestParkedTasksRetainNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	c := testCluster(t, 4)
	mb := NewMailbox("mb", 1, 2)
	c.Eng.Go("send", func(p *sim.Proc) {
		c.Send(p, Message{From: 0, To: 3, Batch: batchOf(1e6), Dest: mb})
		c.Send(p, Message{From: 0, To: 3, EOS: true, Dest: mb})
	})
	c.Run()
	if got := mb.TryRecvManyInto(nil, 8); len(got) != 1 || !mb.Closed() {
		t.Fatalf("received %d batches, mailbox closed = %v; want 1, true", len(got), mb.Closed())
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after a run with four pumps parked, started with %d", got, base)
	}
	c.Stop()
	freed := make(chan struct{})
	runtime.SetFinalizer(c, func(*Cluster) { close(freed) })
	c = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(50 * time.Millisecond): // the finalizer runs on its own goroutine
		}
	}
	t.Fatal("a stopped cluster, its pumps parked on their inboxes, was not collected")
}
