package pstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

// refExchange is Handle.exchange as it was while the consumers and the
// ship forwarders were processes — a blocking grouped receive, the
// blocking Cluster.Send called from inside route — kept as the reference
// the task forms are checked against. The scan process is the same code
// as in Handle.exchange.
func (h *Handle) refExchange(x exchange) {
	e := h.exec
	name := h.ID + "." + x.side
	for _, b := range x.owners {
		b, node, mb := b, e.C.Nodes[b], x.mailboxes[b]
		e.C.Eng.Go(fmt.Sprintf("%scons.%d", name, b), func(p *sim.Proc) {
			var group []storage.Batch
			for {
				first, ok := mb.Recv(p)
				if !ok {
					break
				}
				group = mb.TryRecvManyInto(append(group[:0], first), 64)
				var bytes float64
				for _, batch := range group {
					bytes += batch.Bytes()
				}
				node.CPU.Process(p, bytes*e.cfg.JoinWork)
				if h.aborted {
					continue
				}
				for _, batch := range group {
					x.fold(b, batch)
				}
			}
			x.done.Done()
		})
	}
	for nd, node := range e.C.Nodes {
		nd, node := nd, node
		e.C.Eng.Go(fmt.Sprintf("%sscan.%d", name, nd), func(p *sim.Proc) {
			q := sim.NewQueue[storage.Batch](fmt.Sprintf("%sq.%d", name, nd), e.cfg.MailboxCap)
			e.C.Eng.Go(fmt.Sprintf("%sship.%d", name, nd), func(sp *sim.Proc) {
				route := x.route(nd)
				send := func(dst int, b storage.Batch) {
					e.C.Send(sp, cluster.Message{From: nd, To: dst, Batch: b, Dest: x.mailboxes[dst]})
				}
				for {
					out, ok := q.Get(sp)
					if !ok {
						break
					}
					if !h.aborted {
						route(out, send)
					}
				}
				for _, dst := range x.eos(nd) {
					e.C.Send(sp, cluster.Message{From: nd, To: dst, EOS: true, Dest: x.mailboxes[dst]})
				}
			})
			src := x.open(p, node)
			defer src.Close()
			for !h.aborted {
				out, ok := src.Next()
				if !ok {
					break
				}
				q.Put(p, out)
			}
			q.Close()
		})
	}
}

// mixCursor is a seeded source: a fixed number of batches of random size
// (some empty), each costing its node's CPU the batch's bytes, as a scan
// does. The batch width names the node, so a fold can log where a batch
// came from.
type mixCursor struct {
	p    *sim.Proc
	node *cluster.Node
	rng  *rand.Rand
	left int
}

func (c *mixCursor) Next() (storage.Batch, bool) {
	if c.left == 0 {
		return storage.Batch{}, false
	}
	c.left--
	b := storage.Batch{Rows: c.rng.Intn(40_000), Width: 10 + c.node.ID}
	if c.rng.Intn(8) == 0 {
		b.Rows = 0
	}
	c.node.CPU.Process(c.p, b.Bytes())
	return b, true
}

func (c *mixCursor) Close() { c.left = 0 }

type folded struct {
	at              sim.Time
	side            string
	from, to, rows  int
	doneAt, abortAt sim.Time // on the last entry of a run only
}

// runMix runs two concurrent exchanges of seeded traffic — 2–6 nodes, a
// random owner set each, inbox and mailbox capacities of 1–8, a random
// fan-out per batch that includes the sender's own node — through
// Handle.exchange (tasks) or refExchange (processes), aborting the query
// at abortAt when that is not negative. It returns every fold, the run's
// end, the kernel's counters and every port's and CPU's busy seconds.
func runMix(t *testing.T, seed int64, abortAt sim.Time, ref bool) (log []folded, end sim.Time, st sim.Stats, busy []float64) {
	rng := rand.New(rand.NewSource(seed))
	nb := 1 + rng.Intn(3)
	ccfg := cluster.Mixed(nb, hw.BeefyL5630(), 1+rng.Intn(4-nb+1), hw.LaptopB())
	ccfg.InboxCapacity = 1 + rng.Intn(8)
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	n := len(c.Nodes)
	h := &Handle{ID: "q", exec: New(c, Config{MailboxCap: 1 + rng.Intn(8), JoinWork: 0.5 + rng.Float64()})}
	var wgs [2]sim.WaitGroup
	for i, side := range []string{"build", "probe"} {
		side, sideSeed := side, rng.Int63()
		var owners []int
		for len(owners) == 0 {
			for nd := 0; nd < n; nd++ {
				if rng.Intn(2) == 0 {
					owners = append(owners, nd)
				}
			}
		}
		mbs := make([]*cluster.Mailbox, n)
		for _, b := range owners {
			mbs[b] = cluster.NewMailbox(fmt.Sprintf("q.%s.%d", side, b), n, h.exec.cfg.MailboxCap)
		}
		wgs[i].Add(len(owners))
		x := exchange{
			side: side, owners: owners, mailboxes: mbs, done: &wgs[i],
			open: func(p *sim.Proc, nd *cluster.Node) storage.Cursor {
				r := rand.New(rand.NewSource(sideSeed + int64(nd.ID)))
				return &mixCursor{p: p, node: nd, rng: r, left: 10 + r.Intn(30)}
			},
			route: func(nd int) routeFunc {
				r := rand.New(rand.NewSource(sideSeed ^ int64(nd+1)<<20))
				return func(b storage.Batch, send sendFunc) {
					// A random non-empty subset of the owners, in owner order.
					first := r.Intn(len(owners))
					for i, dst := range owners {
						if i == first || r.Intn(3) == 0 {
							send(dst, storage.Batch{Rows: b.Rows / (1 + r.Intn(3)), Width: b.Width})
						}
					}
				}
			},
			eos: func(int) []int { return owners },
			fold: func(owner int, b storage.Batch) {
				log = append(log, folded{at: c.Eng.Now(), side: side, from: b.Width - 10, to: owner, rows: b.Rows})
			},
		}
		if ref {
			h.refExchange(x)
		} else {
			h.exchange(x)
		}
	}
	doneAt := sim.Time(-1)
	c.Eng.Go("q.finalize", func(p *sim.Proc) {
		wgs[0].Wait(p)
		wgs[1].Wait(p)
		doneAt = p.Now()
	})
	if abortAt >= 0 {
		c.Eng.At(abortAt, func() { h.aborted = true })
	}
	c.Run()
	if doneAt < 0 {
		t.Fatalf("seed %d abort %v ref=%v: the exchanges never drained to EOS", seed, abortAt, ref)
	}
	log = append(log, folded{doneAt: doneAt, abortAt: abortAt})
	for _, nd := range c.Nodes {
		busy = append(busy, nd.Egress.BusySeconds(), nd.Ingress.BusySeconds(), nd.CPU.BusySeconds())
	}
	return log, c.Eng.Now(), c.Eng.Stats(), busy
}

// TestExchangeTasksMatchProcessForms: the ship and consumer tasks do to the
// simulation exactly what the ship and consumer processes did — the same
// folds (time, from, to, rows) in the same order, the same number of
// events, the same busy seconds on every port and CPU, the same drain time
// — on seeded traffic, both undisturbed and aborted at a random time, which
// is read once per batch before routing and after the consumer's CPU
// charge in both forms.
func TestExchangeTasksMatchProcessForms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		_, end, _, _ := runMix(t, seed, -1, true)
		rng := rand.New(rand.NewSource(seed))
		for _, abortAt := range []sim.Time{-1, end * rng.Float64(), end * rng.Float64()} {
			refLog, refEnd, ref, refBusy := runMix(t, seed, abortAt, true)
			log, end, st, busy := runMix(t, seed, abortAt, false)
			if len(refLog) < 2 && abortAt < 0 {
				t.Fatalf("seed %d: the reference folded nothing", seed)
			}
			for i := range refLog {
				if i >= len(log) || log[i] != refLog[i] {
					t.Fatalf("seed %d abort %v: fold %d of %d: tasks %+v, processes %+v", seed, abortAt, i, len(refLog), log[i:min(i+1, len(log))], refLog[i])
				}
			}
			if len(log) != len(refLog) || end != refEnd || st.Events != ref.Events || !reflect.DeepEqual(busy, refBusy) {
				t.Fatalf("seed %d abort %v: tasks %d folds to t=%v %+v busy %v\nprocesses %d folds to t=%v %+v busy %v",
					seed, abortAt, len(log), end, st, busy, len(refLog), refEnd, ref, refBusy)
			}
			if moved := st.Callbacks - ref.Callbacks; moved == 0 || moved != ref.Resumes+ref.Continues-st.Resumes-st.Continues {
				t.Fatalf("seed %d abort %v: tasks %+v, processes %+v: callbacks must rise by what resumes and continues fall", seed, abortAt, st, ref)
			}
		}
	}
}

// TestFoldPanicNamesTheConsumerTask: a panic while folding a batch reaches
// the Run caller as *sim.ProcPanic carrying the consumer's name, as it did
// when the consumer was a process.
func TestFoldPanicNamesTheConsumerTask(t *testing.T) {
	c := cacheTestCluster(t, 2)
	defer c.Stop()
	h := &Handle{ID: "q", exec: New(c, Config{})}
	var wg sim.WaitGroup
	wg.Add(1)
	h.exchange(exchange{
		side: "build", owners: []int{1}, done: &wg,
		mailboxes: []*cluster.Mailbox{1: cluster.NewMailbox("q.build.1", 2, 4)},
		open: func(p *sim.Proc, nd *cluster.Node) storage.Cursor {
			return &mixCursor{p: p, node: nd, rng: rand.New(rand.NewSource(1)), left: 2}
		},
		route: func(int) routeFunc { return func(b storage.Batch, send sendFunc) { send(1, b) } },
		eos:   func(int) []int { return []int{1} },
		fold:  func(int, storage.Batch) { panic("bad batch") },
	})
	defer func() {
		pp, ok := recover().(*sim.ProcPanic)
		if !ok || pp.Proc != "q.buildcons.1" || pp.Value != "bad batch" {
			t.Fatalf("recovered %v, want *sim.ProcPanic{q.buildcons.1, bad batch}", pp)
		}
	}()
	c.Run()
	t.Fatal("Run returned: the fold's panic was lost")
}
