// Package cluster assembles simulated shared-nothing database clusters:
// nodes built from hardware specs (internal/hw), wired through a switched
// network fabric, each with an attached energy meter.
//
// A node exposes three rate resources to the execution engine:
//
//   - CPU:  the node's maximum tuple-processing bandwidth (C_B / C_W);
//   - Disk: sequential scan bandwidth (I);
//   - NIC:  one egress and one ingress server, each at L MB/s.
//
// The fabric models a non-blocking switch with bandwidth-limited ports —
// exactly the regime of the paper's SMCGS5 gigabit switch. Both network
// bottlenecks the paper identifies emerge from it naturally:
//
//   - shuffle egress saturation: a node repartitioning its data can ship
//     at most L, so an N-node shuffle delivers at most N*L/(N-1) of
//     qualified data per node;
//   - Beefy ingestion saturation: in heterogeneous plans all nodes send
//     to the N_B Beefy nodes, whose combined ingress caps delivery at
//     N_B*L ("there is an ingestion network limitation at the Beefy
//     nodes, which becomes a performance bottleneck first", §5.3).
//
// Transfers are pipelined per batch (egress and ingress of consecutive
// batches overlap) with bounded staging queues providing backpressure.
package cluster

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Message is one unit of network traffic: a batch of tuples bound for a
// mailbox on the destination node, or an end-of-stream marker.
type Message struct {
	From, To int
	Batch    storage.Batch
	// EOS marks the sender's last message on this mailbox.
	EOS bool
	// Dest is the mailbox (operator input queue) on the destination node.
	Dest *Mailbox
}

// Bytes returns the wire size of the message (EOS markers are free).
func (m Message) Bytes() float64 {
	if m.EOS {
		return 0
	}
	return m.Batch.Bytes()
}

// Mailbox is an operator input queue fed by the fabric. Receivers Get
// batches until every expected sender has delivered EOS.
type Mailbox struct {
	q       *sim.Queue[Message]
	senders int
}

// NewMailbox creates a mailbox expecting EOS from the given number of
// senders. Capacity bounds buffered batches (backpressure).
func NewMailbox(name string, senders, capacity int) *Mailbox {
	return &Mailbox{q: sim.NewQueue[Message](name, capacity), senders: senders}
}

// Recv returns the next batch, or ok=false when all senders have closed.
func (mb *Mailbox) Recv(p *sim.Proc) (storage.Batch, bool) {
	for {
		msg, ok := mb.q.Get(p)
		if !ok {
			return storage.Batch{}, false
		}
		if msg.EOS {
			mb.senders--
			if mb.senders <= 0 {
				mb.q.Close()
				return storage.Batch{}, false
			}
			continue
		}
		return msg.Batch, true
	}
}

// TryRecvManyInto appends the batches already buffered to buf, up to max in
// all, without blocking, so a consumer can charge its CPU once for the whole
// group — the vectorized consumption real operators use: per-batch charges
// would serialize behind large scan bookings on the shared FCFS CPU server
// and throttle receive rates. Given buf[:0] of its last result, a steady-state
// consumer allocates nothing. A mailbox that yields nothing is Closed, or Wait.
func (mb *Mailbox) TryRecvManyInto(buf []storage.Batch, max int) []storage.Batch {
	for len(buf) < max {
		msg, ok := mb.q.TryGet()
		if !ok {
			break
		}
		if !msg.EOS {
			buf = append(buf, msg.Batch)
		} else if mb.senders--; mb.senders <= 0 {
			mb.q.Close()
			break
		}
	}
	return buf
}

// Closed reports whether every sender has delivered EOS and been seen to.
func (mb *Mailbox) Closed() bool { return mb.q.Closed() }

// Wait registers task t to be stepped when the next message arrives.
func (mb *Mailbox) Wait(t *sim.Task) { mb.q.WaitGet(t) }

// Node is one simulated server.
type Node struct {
	ID   int
	Spec hw.Spec

	CPU     *sim.Server
	Disk    *sim.Server
	Egress  *sim.Server
	Ingress *sim.Server
	Meter   *power.Meter

	inbox *sim.Queue[Message]

	eng *sim.Engine

	down     bool
	downFrom sim.Time
	downs    [][2]sim.Time
}

// IsWimpy reports whether the node is a low-power node.
func (n *Node) IsWimpy() bool { return n.Spec.Class == hw.Wimpy }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// Fail crashes the node at the current virtual time: all four rate
// servers stall until the given restart time (queued work resumes
// behind the outage; the stall books no busy time, so the meter sees
// the downtime as idle — the replacement hardware still burns idle
// power while it provisions). Processes parked on the node's servers
// are not torn down here: query-level abort is the execution engine's
// job (pstore Handle.Abort via the fault injector's crash hooks), which
// reuses the cursor Close paths so no resources leak. Failing an
// already-down node only extends the outage.
func (n *Node) Fail(restartAt sim.Time) {
	for _, s := range []*sim.Server{n.CPU, n.Disk, n.Egress, n.Ingress} {
		s.StallUntil(restartAt)
	}
	if n.down {
		return
	}
	n.down = true
	n.downFrom = n.eng.Now()
}

// Restart marks the node up again at the current virtual time, closing
// the open downtime interval. No-op when the node is not down.
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.downs = append(n.downs, [2]sim.Time{n.downFrom, n.eng.Now()})
	n.down = false
}

// DownBetween returns the seconds the node was crashed during [a, b),
// including a still-open outage.
func (n *Node) DownBetween(a, b sim.Time) float64 {
	total := 0.0
	overlap := func(s, e sim.Time) {
		lo, hi := s, e
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			total += hi - lo
		}
	}
	for _, iv := range n.downs {
		overlap(iv[0], iv[1])
	}
	if n.down {
		overlap(n.downFrom, b)
	}
	return total
}

// Cluster is a set of nodes on a common fabric and one simulation
// engine: every node's servers and processes run on Eng.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node
}

// Config controls cluster construction.
type Config struct {
	// Specs lists the node hardware, one entry per node. Order matters:
	// heterogeneous plans treat the Beefy nodes as hash-table owners.
	Specs []hw.Spec
	// InboxCapacity bounds staged batches per node (default 8).
	InboxCapacity int
}

// New builds a cluster on a fresh simulation engine.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	cap := cfg.InboxCapacity
	if cap <= 0 {
		cap = 8
	}
	eng := sim.New()
	c := &Cluster{Eng: eng}
	for i, spec := range cfg.Specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		n := &Node{ID: i, Spec: spec, eng: eng}
		n.CPU = sim.NewServer(eng, fmt.Sprintf("n%d.cpu", i), spec.CPUBandwidth*1e6)
		n.Disk = sim.NewServer(eng, fmt.Sprintf("n%d.disk", i), spec.DiskMBps*1e6)
		n.Egress = sim.NewServer(eng, fmt.Sprintf("n%d.tx", i), spec.NetMBps*1e6)
		n.Ingress = sim.NewServer(eng, fmt.Sprintf("n%d.rx", i), spec.NetMBps*1e6)
		n.Meter = power.NewMeter(eng, n.CPU, spec.Power, spec.UtilFloor)
		n.inbox = sim.NewQueue[Message](fmt.Sprintf("n%d.inbox", i), cap)
		c.Nodes = append(c.Nodes, n)
		c.startIngressPump(n)
	}
	return c, nil
}

// Run drives the cluster's simulation to completion.
func (c *Cluster) Run() { c.Eng.Run() }

// startIngressPump runs the per-node receive loop: staged messages are
// serialized through the ingress port, then delivered to their mailbox.
// A full mailbox stalls the pump, which backpressures senders — the
// ingestion bottleneck.
func (c *Cluster) startIngressPump(n *Node) {
	var msg Message
	var held bool // msg is off the inbox and through the port, not yet in its mailbox
	n.eng.GoTask(fmt.Sprintf("n%d.rxpump", n.ID), func(t *sim.Task) {
		for {
			if !held {
				if msg, held = n.inbox.TryGet(); !held {
					n.inbox.WaitGet(t)
					return
				}
				if b := msg.Bytes(); b > 0 {
					n.Ingress.ProcessAsync(b, t.Step)
					return
				}
			}
			if !msg.Dest.q.TryPut(msg) {
				msg.Dest.q.WaitPut(t)
				return
			}
			held = false
		}
	})
}

// Send transmits msg from the calling process's node. It charges the
// sender's egress port, then stages the message at the destination
// (blocking when the destination is saturated). Local messages (From ==
// To) bypass the network entirely, as a node's own partition never
// crosses the wire.
func (c *Cluster) Send(p *sim.Proc, msg Message) {
	if msg.From == msg.To {
		msg.Dest.q.Put(p, msg)
		return
	}
	src := c.Nodes[msg.From]
	if b := msg.Bytes(); b > 0 {
		src.Egress.Process(p, b)
	}
	c.Nodes[msg.To].inbox.Put(p, msg)
}

// TrySend is Send for a task: it reports whether msg has been handed over.
// If not, t is stepped again — when the egress port has carried msg (*paid
// keeps that across steps; it starts false) or when the destination has
// room — and must then call TrySend again with the same msg and paid.
func (c *Cluster) TrySend(t *sim.Task, msg Message, paid *bool) bool {
	q := msg.Dest.q
	if msg.From != msg.To {
		q = c.Nodes[msg.To].inbox
		if b := msg.Bytes(); b > 0 && !*paid {
			*paid = true
			c.Nodes[msg.From].Egress.ProcessAsync(b, t.Step)
			return false
		}
	}
	if !q.TryPut(msg) {
		q.WaitPut(t)
		return false
	}
	*paid = false
	return true
}

// Beefy returns the IDs of Beefy-class nodes, in order.
func (c *Cluster) Beefy() []int {
	var out []int
	for _, n := range c.Nodes {
		if !n.IsWimpy() {
			out = append(out, n.ID)
		}
	}
	return out
}

// Stop ends the simulation: it finalizes all node meters at the current
// virtual time, then shuts the engine down so no process — a driver, a
// scan, whatever a halted or deadlocked run left parked — outlives it and
// pins the cluster in memory (tasks hold nothing). Results stay readable;
// nothing more can be run. Idempotent.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Meter.Stop()
	}
	c.Eng.Shutdown()
}

// TotalJoules sums metered energy across nodes.
func (c *Cluster) TotalJoules() float64 {
	var j float64
	for _, n := range c.Nodes {
		j += n.Meter.Joules()
	}
	return j
}

// Homogeneous builds a Config with n identical nodes.
func Homogeneous(n int, spec hw.Spec) Config {
	specs := make([]hw.Spec, n)
	for i := range specs {
		specs[i] = spec
	}
	return Config{Specs: specs}
}

// Mixed builds a Config with nb Beefy followed by nw Wimpy nodes —
// the paper's "xB,yW" designs.
func Mixed(nb int, beefy hw.Spec, nw int, wimpy hw.Spec) Config {
	specs := make([]hw.Spec, 0, nb+nw)
	for i := 0; i < nb; i++ {
		specs = append(specs, beefy)
	}
	for i := 0; i < nw; i++ {
		specs = append(specs, wimpy)
	}
	return Config{Specs: specs}
}
