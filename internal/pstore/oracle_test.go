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

// refExchange is Handle.exchange as it was while the consumers, the ship
// forwarders and the scans were processes — a blocking grouped receive,
// the blocking Cluster.Send called from inside route, the blocking
// scanCursor.Next of procScan — kept as the reference the task forms are
// checked against. It opens each scan without a task, so x.open must not
// wait.
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
			src := procScan{x.open(nil, node), p}
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

// procScan is scanCursor.Next as it was while the scan was a process: it
// blocks p on the prefetch queue and on the CPU, and runs on to a
// non-empty filtered batch or to exhaustion.
type procScan struct {
	*scanCursor
	p *sim.Proc
}

func (c procScan) Next() (storage.Batch, bool) {
	for !c.closed {
		b, ok := c.read()
		if !ok {
			c.release()
			break
		}
		c.node.CPU.Process(c.p, b.Bytes())
		out := c.filter(b)
		if out.Rows > 0 {
			return out, true
		}
	}
	return storage.Batch{}, false
}

func (c procScan) read() (storage.Batch, bool) {
	if c.warm {
		return c.cur.Next()
	}
	return c.prefetch.Get(c.p)
}

// mixCursor is a seeded block source for a scan: a fixed number of
// phantom blocks of random size, some empty. The block width names the
// node, so a fold can log where a batch came from.
type mixCursor struct {
	width int
	rng   *rand.Rand
	left  int
}

func (c *mixCursor) Next() (storage.Batch, bool) {
	if c.left == 0 {
		return storage.Batch{}, false
	}
	c.left--
	b := storage.Batch{Rows: c.rng.Intn(40_000), Width: c.width}
	if c.rng.Intn(8) == 0 {
		b.Rows = 0
	}
	return b, true
}

func (c *mixCursor) Close() { c.left = 0 }

// mixScan opens node nd's scan over a mixCursor of seed's blocks.
func (e *Exec) mixScan(nd *cluster.Node, seed int64, sel float64) *scanCursor {
	r := rand.New(rand.NewSource(seed))
	return e.scanBlocks(nd, &mixCursor{width: 10 + nd.ID, rng: r, left: 10 + r.Intn(30)}, nil, sel)
}

type folded struct {
	at              sim.Time
	side            string
	from, to, rows  int
	doneAt, abortAt sim.Time // on the last entry of a run only
}

// mixRun is what runMix observed: every fold, the run's end, the kernel's
// counters, every port's, CPU's and disk's busy seconds, and whether the
// abort found a scan task with a block charged and not yet filtered
// (procScan keeps no such state: false in the reference).
type mixRun struct {
	log     []folded
	end     sim.Time
	st      sim.Stats
	busy    []float64
	midPull bool
}

// runMix runs two concurrent exchanges of seeded traffic — 2–6 nodes, a
// random owner set each, inbox and mailbox capacities of 1–8, scans of a
// random selectivity over random blocks, warm or cold, a random fan-out
// per batch that includes the sender's own node — through Handle.exchange
// (tasks) or refExchange (processes), aborting the query at abortAt when
// that is not negative.
func runMix(t *testing.T, seed int64, warm bool, abortAt sim.Time, ref bool) (run mixRun) {
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
	h := &Handle{ID: "q", exec: New(c, Config{MailboxCap: 1 + rng.Intn(8), JoinWork: 0.5 + rng.Float64(), WarmCache: warm})}
	var wgs [2]sim.WaitGroup
	var scans []*scanCursor
	for i, side := range []string{"build", "probe"} {
		side, sideSeed, sel := side, rng.Int63(), 0.01+0.99*rng.Float64()
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
			open: func(_ *sim.Task, nd *cluster.Node) *scanCursor {
				sc := h.exec.mixScan(nd, sideSeed+int64(nd.ID), sel)
				scans = append(scans, sc)
				return sc
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
				run.log = append(run.log, folded{at: c.Eng.Now(), side: side, from: b.Width - 10, to: owner, rows: b.Rows})
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
		c.Eng.At(abortAt, func() {
			h.aborted = true
			for _, sc := range scans {
				run.midPull = run.midPull || sc.charged
			}
		})
	}
	c.Run()
	if doneAt < 0 {
		t.Fatalf("seed %d warm %v abort %v ref=%v: the exchanges never drained to EOS", seed, warm, abortAt, ref)
	}
	if open := h.exec.OpenCursors(); open != 0 {
		t.Fatalf("seed %d warm %v abort %v ref=%v: %d cursors left open", seed, warm, abortAt, ref, open)
	}
	run.log = append(run.log, folded{doneAt: doneAt, abortAt: abortAt})
	for _, nd := range c.Nodes {
		run.busy = append(run.busy, nd.Egress.BusySeconds(), nd.Ingress.BusySeconds(), nd.CPU.BusySeconds(), nd.Disk.BusySeconds())
	}
	run.end, run.st = c.Eng.Now(), c.Eng.Stats()
	return run
}

// TestExchangeTasksMatchProcessForms: the scan, ship and consumer tasks do
// to the simulation exactly what the scan, ship and consumer processes did
// — the same folds (time, from, to, rows) in the same order, the same
// events in the same (time, seq) order, the same busy seconds on every
// port, CPU and disk, the same drain time — on seeded traffic over warm
// and cold scans, both undisturbed and aborted at random times. Abort is
// read once per batch before routing, after the consumer's CPU charge and
// between the scan's batches in both forms; the aborts that land while a
// scan's block is charged and not yet filtered check that a started pull
// runs on to its batch.
func TestExchangeTasksMatchProcessForms(t *testing.T) {
	midPulls := 0
	for seed := int64(1); seed <= 25; seed++ {
		for _, warm := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			full := runMix(t, seed, warm, -1, true).end
			for _, abortAt := range []sim.Time{-1, full * rng.Float64(), full * rng.Float64(), full * rng.Float64()} {
				ref := runMix(t, seed, warm, abortAt, true)
				got := runMix(t, seed, warm, abortAt, false)
				if len(ref.log) < 2 && abortAt < 0 {
					t.Fatalf("seed %d warm %v: the reference folded nothing", seed, warm)
				}
				for i := range ref.log {
					if i >= len(got.log) || got.log[i] != ref.log[i] {
						t.Fatalf("seed %d warm %v abort %v: fold %d of %d: tasks %+v, processes %+v", seed, warm, abortAt, i, len(ref.log), got.log[i:min(i+1, len(got.log))], ref.log[i])
					}
				}
				st, rst := got.st, ref.st
				if len(got.log) != len(ref.log) || got.end != ref.end || st.Events != rst.Events || st.Hash != rst.Hash || !reflect.DeepEqual(got.busy, ref.busy) {
					t.Fatalf("seed %d warm %v abort %v: tasks %d folds to t=%v %+v busy %v\nprocesses %d folds to t=%v %+v busy %v",
						seed, warm, abortAt, len(got.log), got.end, st, got.busy, len(ref.log), ref.end, rst, ref.busy)
				}
				if moved := st.Callbacks - rst.Callbacks; moved == 0 || moved != rst.Resumes+rst.Continues-st.Resumes-st.Continues {
					t.Fatalf("seed %d warm %v abort %v: tasks %+v, processes %+v: callbacks must rise by what resumes and continues fall", seed, warm, abortAt, st, rst)
				}
				if got.midPull {
					midPulls++
				}
			}
		}
	}
	if midPulls < 10 {
		t.Fatalf("only %d aborts landed while a scan's block was charged", midPulls)
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
		open: func(_ *sim.Task, nd *cluster.Node) *scanCursor {
			return h.exec.mixScan(nd, 1, 1)
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
