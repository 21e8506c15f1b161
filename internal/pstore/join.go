package pstore

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// hashTable is a per-node build-side multiset (key -> multiplicity),
// backed by an open-addressing storage.Int64Table pre-sized from
// hashOwnerRowHint so steady-state inserts never rehash.
// Phantom runs track only row/byte totals.
type hashTable struct {
	counts *storage.Int64Table
	hint   int // expected distinct build keys on this node
	rows   int64
	bytes  float64
}

// insertBatch folds one batch into the table. LaunchJoin seeds hint from
// the optimizer estimate, so the table is pre-sized before the first
// materialized batch lands (the table itself is still created lazily at
// that first batch, so phantom runs never allocate it).
func (h *hashTable) insertBatch(b storage.Batch) {
	h.rows += int64(b.Rows)
	h.bytes += b.Bytes()
	if b.Phantom() {
		return
	}
	if h.counts == nil {
		h.counts = storage.NewInt64Table(h.hint)
	}
	for _, k := range b.Cols[storage.ColKey] {
		h.counts.Add(k, 1)
	}
}

// probeBatch returns (matches, checksum-delta) for a probe batch.
func (h *hashTable) probeBatch(b storage.Batch, matchRate float64, fracAcc *float64) (int64, uint64) {
	if b.Phantom() {
		*fracAcc += float64(b.Rows) * matchRate
		out := int64(*fracAcc)
		*fracAcc -= float64(out)
		return out, 0
	}
	if h.counts == nil {
		// No build batch ever reached this node (nothing qualified): every
		// probe misses, as the nil-map read did before Int64Table.
		return 0, 0
	}
	var matches int64
	var sum uint64
	for _, k := range b.Cols[storage.ColKey] {
		if c := h.counts.Get(k); c > 0 {
			matches += c
			sum += uint64(k) * uint64(c)
		}
	}
	return matches, sum
}

// Handle tracks one in-flight join query.
type Handle struct {
	ID string

	Done *sim.Event

	// Filled when Done fires.
	Result JoinResult
	Err    error

	startAt sim.Time

	// aborted flags cooperative cancellation (see Abort in retry.go):
	// operators observe it at batch boundaries, stop doing work, and run
	// the normal EOS drain so Done still fires — as a drain-complete
	// signal — with Err set. Plain bool: operators read it at
	// deterministic event points and simulated processes run one at a
	// time.
	aborted bool

	exec     *Exec
	buildWG  sim.WaitGroup
	probeWG  sim.WaitGroup
	tables   []*hashTable // by node ID; nil on nodes that own no table
	frac     []float64    // by node ID: phantom fractional output rows
	outRows  int64
	checksum uint64
}

// sendFunc takes one share of a batch for a hash-table owner;
// routeFunc splits a filtered batch into shares and hands each to send.
type (
	sendFunc  = func(dst int, b storage.Batch)
	routeFunc = func(b storage.Batch, send sendFunc)
)

// exchange describes one input of a hash join — the scan → select →
// exchange → hash chain P-store pushes both inputs through — as a value.
// Everything the build and the probe side share (the tasks, the bounded
// queue between scan and ship, the grouped mailbox drain, the abort
// drain, the EOS protocol) lives in Handle.exchange; what the two sides
// differ in is the fields below.
type exchange struct {
	side      string             // "build" or "probe": task and queue names
	owners    []int              // hash-table owners, the consuming nodes
	mailboxes []*cluster.Mailbox // by node ID: one input per owner
	done      *sim.WaitGroup     // one Done per owner, at its mailbox's EOS

	// open returns node nd's scan, or nil when it cannot open yet: then t,
	// the scan task that will own the cursor, is stepped when it can, and
	// calls open again (the probe side waits for the build barrier here).
	open func(t *sim.Task, nd *cluster.Node) *scanCursor
	// route returns node nd's routing policy: it hands every share of a
	// filtered batch to send, in destination order.
	route func(nd int) routeFunc
	// eos lists the owners node nd's ship task sends end-of-stream to;
	// it must mirror the sender counts the mailboxes were created with.
	eos func(nd int) []int
	// fold consumes one received batch on its owner (insert or probe).
	fold func(owner int, b storage.Batch)
}

// exchange spawns one side of the join: a consumer task per owner, then
// per node a scan task and the ship task it feeds through a bounded
// queue — P-store's multi-threaded operators, so the scan's CPU work
// overlaps the exchange's wire time (§4.2: "maximizing utilization
// through multi-threaded concurrency"). All three are tasks (see
// sim.Task): a join runs no coroutine.
//
// Spawn order is (time, seq) order and therefore part of the simulated
// result: consumers before scanners, and within a scanner the ship task
// before the cursor is opened, so a cold scan's disk pump starts after it.
//
// Abort is read once per role. An aborted scan stops pulling between
// batches and closes its cursor (which stops a cold scan's disk pump);
// the ship task keeps emptying the queue, so the scan is never parked on
// it, but drops the batches; the consumer keeps receiving but folds
// nothing. All three still run the exchange protocol down to EOS, which
// is what lets Done fire and guarantees nothing is left blocked.
func (h *Handle) exchange(x exchange) {
	e := h.exec
	name := h.ID + "." + x.side // "<query>.build" / "<query>.probe"
	for _, b := range x.owners {
		b, node, mb := b, e.C.Nodes[b], x.mailboxes[b]
		// Vectorized consumption: receive up to 64 batches at a time and
		// charge the CPU once per group (join work over its bytes), so
		// small per-batch bookings do not serialize behind large scan
		// bookings on the shared FCFS CPU server.
		var group []storage.Batch // non-empty when a step runs at the end of its CPU charge
		e.C.Eng.GoTask(fmt.Sprintf("%scons.%d", name, b), func(t *sim.Task) {
			if !h.aborted {
				for _, batch := range group {
					x.fold(b, batch)
				}
			}
			group = mb.TryRecvManyInto(group[:0], 64)
			if len(group) == 0 {
				if mb.Closed() {
					x.done.Done()
				} else {
					mb.Wait(t)
				}
				return
			}
			var bytes float64
			for _, batch := range group {
				bytes += batch.Bytes()
			}
			node.CPU.ProcessAsync(bytes*e.cfg.JoinWork, t.Step)
		})
	}
	for nd, node := range e.C.Nodes {
		nd, node := nd, node
		var (
			q       *sim.Queue[storage.Batch]
			src     *scanCursor
			out     storage.Batch // the last batch pulled, put into q before the next pull
			pulling bool          // src's last Pull is not finished
		)
		e.C.Eng.GoTask(fmt.Sprintf("%sscan.%d", name, nd), func(t *sim.Task) {
			if q == nil {
				q = sim.NewQueue[storage.Batch](fmt.Sprintf("%sq.%d", name, nd), e.cfg.MailboxCap)
				h.ship(x, nd, q)
			}
			if src == nil {
				if src = x.open(t, node); src == nil {
					return
				}
			}
			for {
				if out.Rows > 0 && !q.TryPut(out) {
					q.WaitPut(t)
					return
				}
				if !pulling && h.aborted {
					break
				}
				var done bool
				if out, done = src.Pull(t); done {
					break
				}
				if pulling = out.Rows == 0; pulling {
					return
				}
			}
			// The queue first, then the cursor: on exhaustion Close books nothing.
			q.Close()
			src.Close()
		})
	}
}

// ship spawns node nd's ship task: each batch off q becomes the shares
// route makes of it, sent in order; q closed and drained, the EOS fan-out.
func (h *Handle) ship(x exchange, nd int, q *sim.Queue[storage.Batch]) {
	e := h.exec
	route := x.route(nd)
	var (
		out  []cluster.Message // the current batch's shares, or the EOS fan-out
		sent int               // out[:sent] is delivered
		paid bool              // TrySend's progress on out[sent]
		eos  bool              // out is the EOS fan-out
	)
	collect := func(dst int, b storage.Batch) {
		out = append(out, cluster.Message{From: nd, To: dst, Batch: b, Dest: x.mailboxes[dst]})
	}
	e.C.Eng.GoTask(fmt.Sprintf("%s.%sship.%d", h.ID, x.side, nd), func(t *sim.Task) {
		for {
			for ; sent < len(out); sent++ {
				if !e.C.TrySend(t, &out[sent], &paid) {
					return
				}
				out[sent] = cluster.Message{} // the batch is the receiver's now
			}
			if eos {
				return
			}
			out, sent = out[:0], 0
			var b storage.Batch
			switch {
			case q.TryGet(&b):
				if !h.aborted {
					route(b, collect)
				}
			case q.Closed():
				eos = true
				for _, dst := range x.eos(nd) {
					out = append(out, cluster.Message{From: nd, To: dst, EOS: true, Dest: x.mailboxes[dst]})
				}
			default:
				q.WaitGet(t)
				return
			}
		}
	})
}

// LaunchJoin spawns all tasks for one join query on the engine's
// cluster. The returned handle's Done event fires (in virtual time) when
// the query completes; multiple concurrent joins may be launched before
// running the simulation.
func (e *Exec) LaunchJoin(id string, spec JoinSpec) (*Handle, error) {
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(e.C); err != nil {
		return nil, err
	}
	// Fault plane: every join scans every node, so a down node means the
	// query cannot be admitted — the retry path backs off and re-enters
	// here once the node has restarted. No-op on unfaulted clusters.
	for _, nd := range e.C.Nodes {
		if nd.Down() {
			return nil, fmt.Errorf("pstore: %w: node %d is down", ErrNodeDown, nd.ID)
		}
	}
	n := len(e.C.Nodes)
	owners := spec.BuildNodes
	if len(owners) == 0 {
		owners = make([]int, n)
		for i := range owners {
			owners[i] = i
		}
	}
	if spec.Method == Prepartitioned && len(owners) != n {
		return nil, fmt.Errorf("pstore: prepartitioned join requires all nodes to build")
	}

	buildParts, err := storage.PartitionTable(spec.Build, n, e.cfg.BatchRows)
	if err != nil {
		return nil, err
	}
	probeParts, err := storage.PartitionTable(spec.Probe, n, e.cfg.BatchRows)
	if err != nil {
		return nil, err
	}

	h := &Handle{
		ID: id, Done: &sim.Event{}, exec: e,
		startAt: e.C.Eng.Now(),
		tables:  make([]*hashTable, n),
		frac:    make([]float64, n),
	}
	// Expected qualified build rows per hash-table owner: the optimizer
	// estimate that pre-sizes each owner's table.
	hint := hashOwnerRowHint(spec, len(owners))
	// Per owner: the hash table and one build + one probe input. Under
	// Broadcast and Prepartitioned an owner probes its own rows locally,
	// so only the non-owners' ship tasks (plus the owner's own EOS)
	// feed its probe mailbox.
	local := spec.Method == Broadcast || spec.Method == Prepartitioned
	probeSenders := n
	if local {
		probeSenders = n - len(owners) + 1
	}
	buildMB := make([]*cluster.Mailbox, n)
	probeMB := make([]*cluster.Mailbox, n)
	for _, b := range owners {
		h.tables[b] = &hashTable{hint: hint}
		buildMB[b] = cluster.NewMailbox(fmt.Sprintf("%s.build.%d", id, b), n, e.cfg.MailboxCap)
		probeMB[b] = cluster.NewMailbox(fmt.Sprintf("%s.probe.%d", id, b), probeSenders, e.cfg.MailboxCap)
	}
	e.inflight = append(e.inflight, h)
	h.buildWG.Add(len(owners))
	h.probeWG.Add(len(owners))
	toSelf := func(nd int) routeFunc {
		return func(b storage.Batch, send sendFunc) { send(nd, b) }
	}

	h.exchange(exchange{
		side: "build", owners: owners, mailboxes: buildMB, done: &h.buildWG,
		open: func(_ *sim.Task, nd *cluster.Node) *scanCursor {
			return e.scan(nd, buildParts[nd.ID], spec.BuildSel)
		},
		route: func(nd int) routeFunc {
			switch spec.Method {
			case Broadcast:
				// Every hash-table owner receives a full copy.
				return func(b storage.Batch, send sendFunc) {
					for _, dst := range owners {
						send(dst, b)
					}
				}
			case Prepartitioned:
				return toSelf(nd)
			default: // DualShuffle: route by join key.
				return newRouter(owners).routeEach
			}
		},
		eos:  func(int) []int { return owners },
		fold: func(owner int, b storage.Batch) { h.tables[owner].insertBatch(b) },
	})

	// A qualified probe tuple of a foreign-key join finds its one build
	// match exactly when that build row qualified, so phantom output
	// cardinality is qualified probe rows x BuildSel.
	matchRate := spec.BuildSel
	h.exchange(exchange{
		side: "probe", owners: owners, mailboxes: probeMB, done: &h.probeWG,
		open: func(t *sim.Task, nd *cluster.Node) *scanCursor {
			if !h.buildWG.WaitTask(t) { // global build barrier
				return nil
			}
			return e.scan(nd, probeParts[nd.ID], spec.ProbeSel)
		},
		route: func(nd int) routeFunc {
			switch {
			case local && h.tables[nd] != nil:
				// Probe against the local (full or co-partitioned) hash
				// table; no exchange.
				return toSelf(nd)
			case local:
				// Non-owner under broadcast: any owner can probe (they
				// all hold the full table) — round-robin.
				rr := nd
				return func(b storage.Batch, send sendFunc) {
					send(owners[rr%len(owners)], b)
					rr++
				}
			default: // DualShuffle: route by join key.
				return newRouter(owners).routeEach
			}
		},
		eos: func(nd int) []int {
			if local && h.tables[nd] != nil {
				return []int{nd}
			}
			return owners
		},
		fold: func(owner int, b storage.Batch) {
			rows, sum := h.tables[owner].probeBatch(b, matchRate, &h.frac[owner])
			h.outRows += rows
			h.checksum += sum
		},
	})

	e.C.Eng.GoTask(id+".finalize", func(t *sim.Task) {
		if h.probeWG.WaitTask(t) {
			h.finalize(e.C.Eng.Now())
		}
	})
	return h, nil
}

func (h *Handle) finalize(end sim.Time) {
	e := h.exec
	for i, other := range e.inflight {
		if other == h {
			e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
			break
		}
	}
	if h.aborted {
		// Done still fires — it is the drain-complete signal the retry
		// driver waits on — but the result is void and Err (set by
		// Abort) reports why.
		h.Done.Fire()
		return
	}
	r := &h.Result
	r.Seconds = end - h.startAt
	r.OutputRows = h.outRows
	r.Checksum = h.checksum
	for _, ht := range h.tables {
		if ht == nil {
			continue
		}
		r.BuildRowsTotal += ht.rows
		if ht.bytes > r.MaxHashTableBytes {
			r.MaxHashTableBytes = ht.bytes
		}
	}
	h.Done.Fire()
}

// router splits filtered batches across destination nodes. For
// materialized batches rows are routed by Hash64(join key) — the same
// hash storage segmentation uses, so partition-compatibility is exact.
// Phantom batches split evenly, with fractional-row accumulators so
// totals are exact.
type router struct {
	dests []int
	acc   []float64

	// Reused per-route scratch: the per-destination row lists of the
	// batch being split. Lives for the router's lifetime so the exchange
	// hot path allocates nothing per batch.
	idx [][]int
}

func newRouter(dests []int) *router {
	return &router{
		dests: dests,
		acc:   make([]float64, len(dests)),
		idx:   make([][]int, len(dests)),
	}
}

// routeEach splits b across the router's destinations, invoking emit
// once per destination that receives rows, in destination order. The
// caller (a ship task) collects the shares in a slice it reuses, so no
// routed slice is allocated per batch.
func (r *router) routeEach(b storage.Batch, emit sendFunc) {
	d := len(r.dests)
	if d == 1 {
		emit(r.dests[0], b)
		return
	}
	if b.Phantom() {
		w := 1.0 / float64(d)
		for i, dst := range r.dests {
			r.acc[i] += float64(b.Rows) * w
			take := int(r.acc[i])
			r.acc[i] -= float64(take)
			if take > 0 {
				emit(dst, storage.Batch{Rows: take, Width: b.Width})
			}
		}
		return
	}
	for j := range r.idx {
		r.idx[j] = r.idx[j][:0]
	}
	for i, k := range b.Cols[storage.ColKey] {
		j := int(tpch.Hash64(uint64(k)) % uint64(d))
		r.idx[j] = append(r.idx[j], i)
	}
	for j, rows := range r.idx {
		if len(rows) > 0 {
			emit(r.dests[j], storage.FilterBatch(b, rows))
		}
	}
}

// runAll launches k copies of spec at once, runs the simulation to
// completion, stops the cluster and returns the finished handles plus
// the cluster's total energy.
func runAll(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) ([]*Handle, float64, error) {
	e := New(c, cfg)
	handles := make([]*Handle, k)
	for i := range handles {
		h, err := e.LaunchJoin(fmt.Sprintf("q%d", i), spec)
		if err != nil {
			return nil, 0, err
		}
		handles[i] = h
	}
	c.Run()
	c.Stop()
	for _, h := range handles {
		if !h.Done.Fired() {
			return nil, 0, fmt.Errorf("pstore: query %s did not complete (deadlock?)", h.ID)
		}
	}
	return handles, c.TotalJoules(), nil
}

// RunJoin is the single-query convenience wrapper: launch, run the
// simulation to completion, stop the cluster, and return the result plus
// the cluster's total energy.
func RunJoin(c *cluster.Cluster, cfg Config, spec JoinSpec) (JoinResult, float64, error) {
	hs, joules, err := runAll(c, cfg, spec, 1)
	if err != nil {
		return JoinResult{}, 0, err
	}
	return hs[0].Result, joules, hs[0].Err
}

// RunConcurrent launches k independent copies of spec simultaneously
// (the paper's concurrency levels 1, 2, 4 in Figures 3-4) and returns
// the makespan, per-query times, and total cluster energy.
func RunConcurrent(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) (makespan float64, perQuery []float64, joules float64, err error) {
	hs, joules, err := runAll(c, cfg, spec, k)
	if err != nil {
		return 0, nil, 0, err
	}
	for _, h := range hs {
		if h.Err != nil {
			return 0, nil, 0, h.Err
		}
		perQuery = append(perQuery, h.Result.Seconds)
		makespan = math.Max(makespan, h.Result.Seconds)
	}
	return makespan, perQuery, joules, nil
}
