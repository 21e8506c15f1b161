package pstore

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// hashTable is a per-node build-side multiset (key -> multiplicity),
// backed by an open-addressing storage.Int64Table pre-sized from the
// build cursor's row hint so steady-state inserts never rehash.
// Phantom runs track only row/byte totals.
type hashTable struct {
	counts *storage.Int64Table
	hint   int // expected distinct build keys on this node
	rows   int64
	bytes  float64
}

// insertBatch folds one batch into the table. The consumer seeds hint
// from its cursor's row hint so the table is pre-sized before the first
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
	keys := b.Cols[storage.ColKey]
	for i := 0; i < b.Rows; i++ {
		h.counts.Add(keys.Int64(i), 1)
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
	keys := b.Cols[storage.ColKey]
	for i := 0; i < b.Rows; i++ {
		k := keys.Int64(i)
		if c := h.counts.Get(k); c > 0 {
			matches += c
			sum += uint64(k) * uint64(c)
		}
	}
	return matches, sum
}

// queueCursor adapts the bounded queue between a scan and its ship
// process to the Cursor interface, forwarding the scan's row hint so
// the exchange side of the pipeline sees the same cardinality estimate
// the scan pushed down.
type queueCursor struct {
	p      *sim.Proc
	q      *sim.Queue[storage.Batch]
	hint   int64
	hintOK bool
	closed bool
}

var _ storage.Cursor = (*queueCursor)(nil)

func (c *queueCursor) Next() (storage.Batch, bool) {
	if c.closed {
		return storage.Batch{}, false
	}
	return c.q.Get(c.p)
}

func (c *queueCursor) RowHint() (int64, bool) { return c.hint, c.hintOK }

// Close stops consuming. The queue is deliberately NOT drained: the
// producing scan parks on the bounded queue's backpressure and stops
// booking simulated resources — early termination propagates upstream
// as a stall, exactly like a real exchange whose consumer went away.
func (c *queueCursor) Close() { c.closed = true }

// mailboxCursor drains a node mailbox as a cursor, preserving the
// vectorized consumption pattern: batches are received in groups of up
// to 64 and the node's CPU is charged once per group (join work over
// the group's bytes) before any batch from it is yielded.
type mailboxCursor struct {
	p    *sim.Proc
	mb   *cluster.Mailbox
	cpu  *sim.Server
	work float64
	hint int64
	ok   bool // hint validity

	buf []storage.Batch // current group, reused across receives
	i   int
}

var _ storage.Cursor = (*mailboxCursor)(nil)

func (c *mailboxCursor) Next() (storage.Batch, bool) {
	for c.i >= len(c.buf) {
		if c.mb == nil {
			return storage.Batch{}, false
		}
		batches, ok := c.mb.RecvManyInto(c.p, c.buf[:0], 64)
		if !ok {
			return storage.Batch{}, false
		}
		c.buf, c.i = batches, 0
		var bytes float64
		for _, b := range batches {
			bytes += b.Bytes()
		}
		c.cpu.Process(c.p, bytes*c.work)
	}
	b := c.buf[c.i]
	c.i++
	return b, true
}

func (c *mailboxCursor) RowHint() (int64, bool) { return c.hint, c.ok }

// Close stops consuming; buffered and in-flight batches are dropped.
// Abnormal termination only: the mailbox's EOS protocol is not run
// down, so a join whose consumer closes early must not be waited on
// for completion.
func (c *mailboxCursor) Close() {
	c.buf = nil
	c.i = 0
	c.mb = nil
}

// Handle tracks one in-flight join query.
type Handle struct {
	ID   string
	Spec JoinSpec

	Done *sim.Event

	// Filled when Done fires.
	Result JoinResult
	Err    error

	startAt    sim.Time
	buildEndAt sim.Time

	// aborted flags cooperative cancellation (see Abort in retry.go):
	// operators observe it at batch boundaries, stop doing work, and run
	// the normal EOS drain so Done still fires — as a drain-complete
	// signal — with Err set. Plain bool: operators read it at
	// deterministic event points and simulated processes run one at a
	// time.
	aborted bool

	exec       *Exec
	buildWG    sim.WaitGroup
	probeWG    sim.WaitGroup
	tables     map[int]*hashTable
	outRows    int64
	checksum   uint64
	fracByNode map[int]*float64
}

// LaunchJoin spawns all processes for one join query on the engine's
// cluster. The returned handle's Done event fires (in virtual time) when
// the query completes; multiple concurrent joins may be launched before
// running the simulation.
func (e *Exec) LaunchJoin(id string, spec JoinSpec) (*Handle, error) {
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
	buildNodes := spec.BuildNodes
	if len(buildNodes) == 0 {
		buildNodes = make([]int, n)
		for i := range buildNodes {
			buildNodes[i] = i
		}
	}
	if spec.Method == Prepartitioned && len(buildNodes) != n {
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
		ID: id, Spec: spec, Done: &sim.Event{}, exec: e,
		startAt:    e.C.Eng.Now(),
		tables:     make(map[int]*hashTable, len(buildNodes)),
		fracByNode: make(map[int]*float64, len(buildNodes)),
	}
	// Expected qualified build rows per hash-table owner: the optimizer
	// estimate carried to each owner's build cursor for pre-sizing.
	hint := hashOwnerRowHint(spec, len(buildNodes))
	// Admission: the hint pre-sizes each owner's Int64Table (two
	// power-of-two int64 arrays), pinning that allocation before the
	// first row arrives. Check the RESERVED bytes — plus whatever the
	// write path's unmerged delta tails already hold on the node —
	// against node memory now, so an over-reserved table fails at plan
	// time instead of after the build has run (finalize still checks
	// the realized table as a backstop).
	if e.cfg.CheckMemory {
		reserved := storage.Int64TableReservedBytes(hint)
		for _, b := range buildNodes {
			memBytes := e.C.Nodes[b].Spec.MemoryMB * 1e6
			tail := e.deltas.NodeTailBytes(b)
			if reserved+tail > memBytes {
				return nil, fmt.Errorf("pstore: node %d hash-table reservation (%.0f MB for %d hinted build rows) plus delta tail (%.0f MB) exceeds memory (%.0f MB); admission failed before build",
					b, reserved/1e6, hint, tail/1e6, memBytes/1e6)
			}
		}
	}
	for _, b := range buildNodes {
		h.tables[b] = &hashTable{}
		var f float64
		h.fracByNode[b] = &f
	}
	e.inflight = append(e.inflight, h)

	isBuild := make(map[int]bool, len(buildNodes))
	for _, b := range buildNodes {
		isBuild[b] = true
	}

	// Mailboxes: one build + one probe input per hash-table owner.
	buildMB := make(map[int]*cluster.Mailbox, len(buildNodes))
	probeMB := make(map[int]*cluster.Mailbox, len(buildNodes))
	probeSenders := n
	if spec.Method == Broadcast || spec.Method == Prepartitioned {
		// Local probes bypass mailboxes; only non-build scanners ship.
		probeSenders = n - len(buildNodes) + 1 // +1: owner sends its own EOS
	}
	for _, b := range buildNodes {
		buildMB[b] = cluster.NewMailbox(fmt.Sprintf("%s.build.%d", id, b), n, e.cfg.MailboxCap)
		probeMB[b] = cluster.NewMailbox(fmt.Sprintf("%s.probe.%d", id, b), probeSenders, e.cfg.MailboxCap)
	}

	h.buildWG.Add(len(buildNodes))
	h.probeWG.Add(len(buildNodes))

	// --- Build-side consumers -------------------------------------------
	for _, b := range buildNodes {
		b := b
		node := e.C.Nodes[b]
		e.C.Eng.Go(fmt.Sprintf("%s.buildcons.%d", id, b), func(p *sim.Proc) {
			in := &mailboxCursor{
				p: p, mb: buildMB[b], cpu: node.CPU, work: e.cfg.JoinWork,
				hint: int64(hint), ok: true,
			}
			// As buildFrom, plus abort awareness: an aborted query keeps
			// draining its mailboxes to EOS (the exchange protocol must
			// run down so nothing deadlocks) but stops inserting.
			ht := h.tables[b]
			if rows, ok := in.RowHint(); ok && int(rows) > ht.hint {
				ht.hint = int(rows)
			}
			for {
				batch, ok := in.Next()
				if !ok {
					break
				}
				if h.aborted {
					continue
				}
				ht.insertBatch(batch)
			}
			h.buildWG.Done()
		})
	}

	// --- Build-side scanners ---------------------------------------------
	// Scan+filter and network shipping run as separate pipelined
	// processes connected by a bounded queue, mirroring P-store's
	// multi-threaded operators: the scan's CPU work overlaps the
	// exchange's wire time (§4.2: "maximizing utilization through
	// multi-threaded concurrency").
	for nd := 0; nd < n; nd++ {
		nd := nd
		node := e.C.Nodes[nd]
		part := buildParts[nd]
		e.C.Eng.Go(fmt.Sprintf("%s.buildscan.%d", id, nd), func(p *sim.Proc) {
			scanHint := int64(float64(part.Rows) * spec.BuildSel)
			sendQ := sim.NewQueue[storage.Batch](fmt.Sprintf("%s.bq.%d", id, nd), e.cfg.MailboxCap)
			e.C.Eng.Go(fmt.Sprintf("%s.buildship.%d", id, nd), func(sp *sim.Proc) {
				in := &queueCursor{p: sp, q: sendQ, hint: scanHint, hintOK: true}
				var ship func(out storage.Batch)
				switch spec.Method {
				case Broadcast:
					// Every hash-table owner receives a full copy.
					ship = func(out storage.Batch) {
						for _, dst := range buildNodes {
							e.C.Send(sp, cluster.Message{From: nd, To: dst, Batch: out, Dest: buildMB[dst]})
						}
					}
				case Prepartitioned:
					ship = func(out storage.Batch) {
						e.C.Send(sp, cluster.Message{From: nd, To: nd, Batch: out, Dest: buildMB[nd]})
					}
				default: // DualShuffle
					rt := newRouter(buildNodes, nil)
					ship = func(out storage.Batch) {
						rt.routeEach(out, func(dst int, b storage.Batch) {
							e.C.Send(sp, cluster.Message{From: nd, To: dst, Batch: b, Dest: buildMB[dst]})
						})
					}
				}
				for {
					out, ok := in.Next()
					if !ok {
						break
					}
					// Aborted: consume and drop so the scan side is never
					// blocked on the queue, then run the EOS fan-out.
					if !h.aborted {
						ship(out)
					}
				}
				for _, dst := range buildNodes {
					e.C.Send(sp, cluster.Message{From: nd, To: dst, EOS: true, Dest: buildMB[dst]})
				}
			})
			src := e.scan(p, node, part, spec.BuildSel)
			defer src.Close()
			for !h.aborted {
				out, ok := src.Next()
				if !ok {
					break
				}
				sendQ.Put(p, out)
			}
			sendQ.Close()
		})
	}

	// --- Probe-side consumers (hash-table owners) -------------------------
	matchRate := spec.matchRate()
	for _, b := range buildNodes {
		b := b
		node := e.C.Nodes[b]
		e.C.Eng.Go(fmt.Sprintf("%s.probecons.%d", id, b), func(p *sim.Proc) {
			ht, frac := h.tables[b], h.fracByNode[b]
			in := &mailboxCursor{p: p, mb: probeMB[b], cpu: node.CPU, work: e.cfg.JoinWork}
			for {
				batch, ok := in.Next()
				if !ok {
					break
				}
				if h.aborted {
					continue // drain to EOS, no probe work
				}
				rows, sum := ht.probeBatch(batch, matchRate, frac)
				h.outRows += rows
				h.checksum += sum
			}
			h.probeWG.Done()
		})
	}

	// Skewed probe keys land unevenly across hash-table owners.
	var probeWeights []float64
	if spec.Probe.SkewTheta > 0 {
		probeWeights = skewWeights(spec.Build.TotalRows(), spec.Probe.SkewTheta, len(buildNodes))
	}

	// --- Probe-side scanners (wait for global build barrier) --------------
	for nd := 0; nd < n; nd++ {
		nd := nd
		node := e.C.Nodes[nd]
		part := probeParts[nd]
		e.C.Eng.Go(fmt.Sprintf("%s.probescan.%d", id, nd), func(p *sim.Proc) {
			h.buildWG.Wait(p)
			if nd == buildNodes[0] && h.buildEndAt == 0 {
				h.buildEndAt = p.Now()
			}
			// Replicated-dimension semijoins: hash the local dimension
			// copies (node-local CPU work), then filter probe tuples
			// before they reach the exchange.
			dimFilters, dimBuildBytes, dimErr := e.buildDimFilters(spec.Dims, spec.Probe.Materialize)
			if dimErr != nil {
				if h.Err == nil {
					h.Err = dimErr
				}
				dimFilters = nil
			} else if dimBuildBytes > 0 {
				node.CPU.Process(p, dimBuildBytes*e.cfg.JoinWork)
			}
			// The ship side's cardinality estimate: scan selectivity
			// compounded with every dimension's (the pushdown rule).
			est := float64(part.Rows) * spec.ProbeSel
			for _, f := range dimFilters {
				est *= f.spec.Sel
			}
			local := isBuild[nd] && (spec.Method == Broadcast || spec.Method == Prepartitioned)
			sendQ := sim.NewQueue[storage.Batch](fmt.Sprintf("%s.pq.%d", id, nd), e.cfg.MailboxCap)
			e.C.Eng.Go(fmt.Sprintf("%s.probeship.%d", id, nd), func(sp *sim.Proc) {
				in := &queueCursor{p: sp, q: sendQ, hint: int64(est), hintOK: true}
				var ship func(out storage.Batch)
				switch {
				case local:
					// Probe against the local (full or co-partitioned)
					// hash table; no exchange.
					ship = func(out storage.Batch) {
						e.C.Send(sp, cluster.Message{From: nd, To: nd, Batch: out, Dest: probeMB[nd]})
					}
				case spec.Method == Broadcast || spec.Method == Prepartitioned:
					// Non-owner under broadcast: any owner can probe
					// (they all hold the full table) — round-robin.
					rr := nd
					ship = func(out storage.Batch) {
						dst := buildNodes[rr%len(buildNodes)]
						rr++
						e.C.Send(sp, cluster.Message{From: nd, To: dst, Batch: out, Dest: probeMB[dst]})
					}
				default: // DualShuffle: route by join key.
					rt := newRouter(buildNodes, probeWeights)
					ship = func(out storage.Batch) {
						rt.routeEach(out, func(dst int, b storage.Batch) {
							e.C.Send(sp, cluster.Message{From: nd, To: dst, Batch: b, Dest: probeMB[dst]})
						})
					}
				}
				for {
					out, ok := in.Next()
					if !ok {
						break
					}
					if !h.aborted {
						ship(out)
					}
				}
				// EOS fan-out mirrors the mailbox sender counts.
				if spec.Method == Broadcast || spec.Method == Prepartitioned {
					if isBuild[nd] {
						e.C.Send(sp, cluster.Message{From: nd, To: nd, EOS: true, Dest: probeMB[nd]})
					} else {
						for _, dst := range buildNodes {
							e.C.Send(sp, cluster.Message{From: nd, To: dst, EOS: true, Dest: probeMB[dst]})
						}
					}
				} else {
					for _, dst := range buildNodes {
						e.C.Send(sp, cluster.Message{From: nd, To: dst, EOS: true, Dest: probeMB[dst]})
					}
				}
			})
			var src storage.Cursor = e.scan(p, node, part, spec.ProbeSel)
			if len(dimFilters) > 0 {
				src = &dimFilterCursor{in: src, p: p, cpu: node.CPU, filters: dimFilters}
			}
			// Close on every exit: on abort this stops the cold-scan disk
			// pump so no blocks nobody will read keep booking disk time.
			// On normal exhaustion the cursor has already released itself
			// and Close books nothing, so timings are unchanged.
			defer src.Close()
			for !h.aborted {
				out, ok := src.Next()
				if !ok {
					break
				}
				sendQ.Put(p, out)
			}
			sendQ.Close()
		})
	}

	// --- Completion --------------------------------------------------------
	e.C.Eng.Go(id+".finalize", func(p *sim.Proc) {
		h.probeWG.Wait(p)
		h.finalize(p.Now())
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
	r.BuildSeconds = h.buildEndAt - h.startAt
	r.ProbeSeconds = end - h.buildEndAt
	r.OutputRows = h.outRows
	r.Checksum = h.checksum
	owners := make([]int, 0, len(h.tables))
	for b := range h.tables {
		owners = append(owners, b)
	}
	sort.Ints(owners)
	for _, b := range owners {
		ht := h.tables[b]
		r.BuildRowsTotal += ht.rows
		if ht.bytes > r.MaxHashTableBytes {
			r.MaxHashTableBytes = ht.bytes
		}
		if e.cfg.CheckMemory {
			memBytes := e.C.Nodes[b].Spec.MemoryMB*1e6 - e.deltas.NodeTailBytes(b)
			if ht.bytes > memBytes {
				h.Err = fmt.Errorf("pstore: hash table on node %d (%.0f MB) exceeds memory (%.0f MB); P-store has no 2-pass join",
					b, ht.bytes/1e6, memBytes/1e6)
			}
		}
	}
	h.Done.Fire()
}

// router splits filtered batches across destination nodes. For
// materialized batches rows are routed by Hash64(join key) — the same
// hash storage segmentation uses, so partition-compatibility is exact.
// Phantom batches split by per-destination weights (uniform unless the
// key distribution is skewed) with fractional-row accumulators so totals
// are exact.
type router struct {
	dests   []int
	weights []float64 // nil = uniform
	acc     []float64

	// Reused per-route scratch: the per-destination row lists of the
	// batch being split. Lives for the router's lifetime so the exchange
	// hot path allocates nothing per batch.
	idx [][]int
}

func newRouter(dests []int, weights []float64) *router {
	return &router{
		dests:   dests,
		weights: weights,
		acc:     make([]float64, len(dests)),
		idx:     make([][]int, len(dests)),
	}
}

// routeEach splits b across the router's destinations, invoking emit
// once per destination that receives rows, in destination order. No
// per-batch routed slice exists: the consumer (a ship process) sends
// each share as it is produced.
func (r *router) routeEach(b storage.Batch, emit func(dst int, b storage.Batch)) {
	d := len(r.dests)
	if d == 1 {
		emit(r.dests[0], b)
		return
	}
	if b.Phantom() {
		for i, dst := range r.dests {
			w := 1.0 / float64(d)
			if r.weights != nil {
				w = r.weights[i]
			}
			r.acc[i] += float64(b.Rows) * w
			take := int(r.acc[i])
			r.acc[i] -= float64(take)
			if take > 0 {
				emit(dst, storage.Batch{Rows: take, Width: b.Width})
			}
		}
		return
	}
	keys := b.Cols[storage.ColKey]
	for j := range r.idx {
		r.idx[j] = r.idx[j][:0]
	}
	for i := 0; i < b.Rows; i++ {
		j := int(tpch.Hash64(uint64(keys.Int64(i))) % uint64(d))
		r.idx[j] = append(r.idx[j], i)
	}
	for j, rows := range r.idx {
		if len(rows) > 0 {
			emit(r.dests[j], storage.FilterBatch(b, rows))
		}
	}
}

// skewWeights returns the per-destination share of rows when join keys
// follow Zipf(theta) over [1, nKeys] and are hash-routed across d
// destinations: the mass of the hottest keys lands on whichever nodes
// their hashes select, creating the §4.1 utilization imbalance. The head
// of the distribution (up to 100k ranks) is enumerated exactly; the
// near-uniform tail is spread evenly.
func skewWeights(nKeys int64, theta float64, d int) []float64 {
	w := make([]float64, d)
	if theta <= 0 || d <= 1 {
		for i := range w {
			w[i] = 1.0 / float64(d)
		}
		return w
	}
	head := nKeys
	if head > 100_000 {
		head = 100_000
	}
	var headMass, totalMass float64
	for r := int64(1); r <= head; r++ {
		totalMass += math.Pow(float64(r), -theta)
	}
	headMass = totalMass
	// Tail mass via the integral approximation of the truncated zeta sum.
	if nKeys > head && theta != 1 {
		totalMass += (math.Pow(float64(nKeys), 1-theta) - math.Pow(float64(head), 1-theta)) / (1 - theta)
	}
	for r := int64(1); r <= head; r++ {
		j := int(tpch.Hash64(uint64(r)) % uint64(d))
		w[j] += math.Pow(float64(r), -theta) / totalMass
	}
	tail := (totalMass - headMass) / totalMass
	for i := range w {
		w[i] += tail / float64(d)
	}
	return w
}

// RunJoin is the single-query convenience wrapper: launch, run the
// simulation to completion, stop meters, and return the result plus the
// cluster's total energy.
func RunJoin(c *cluster.Cluster, cfg Config, spec JoinSpec) (JoinResult, float64, error) {
	e := New(c, cfg)
	h, err := e.LaunchJoin("q0", spec)
	if err != nil {
		return JoinResult{}, 0, err
	}
	c.Run()
	if !h.Done.Fired() {
		return JoinResult{}, 0, fmt.Errorf("pstore: join did not complete (deadlock?)")
	}
	c.StopMeters()
	return h.Result, c.TotalJoules(), h.Err
}

// RunConcurrent launches k independent copies of spec simultaneously
// (the paper's concurrency levels 1, 2, 4 in Figures 3-4) and returns
// the makespan, per-query times, and total cluster energy.
func RunConcurrent(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) (makespan float64, perQuery []float64, joules float64, err error) {
	e := New(c, cfg)
	handles := make([]*Handle, k)
	for i := 0; i < k; i++ {
		handles[i], err = e.LaunchJoin(fmt.Sprintf("q%d", i), spec)
		if err != nil {
			return 0, nil, 0, err
		}
	}
	c.Run()
	for _, h := range handles {
		if !h.Done.Fired() {
			return 0, nil, 0, fmt.Errorf("pstore: query %s did not complete", h.ID)
		}
		if h.Err != nil {
			return 0, nil, 0, h.Err
		}
		perQuery = append(perQuery, h.Result.Seconds)
		makespan = math.Max(makespan, h.Result.Seconds)
	}
	c.StopMeters()
	return makespan, perQuery, c.TotalJoules(), nil
}
