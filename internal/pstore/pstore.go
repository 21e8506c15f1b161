// Package pstore is the reproduction of P-store, the paper's custom
// multi-threaded parallel query execution kernel (Section 4.2): a
// block-iterator engine with scan, select, project, network-exchange
// (shuffle and broadcast) and hash-join operators built on the columnar
// storage engine.
//
// The engine runs on a simulated cluster (internal/cluster): operators are
// simulation processes and tasks; every byte scanned, shuffled, built or probed
// charges the owning node's CPU/disk/NIC rate servers, so response time
// comes from the discrete-event clock and energy from the per-node power
// meters. With materialized tables (small scale factors) the operators
// additionally compute real join results, which tests verify against a
// serial reference join; at paper scale (SF 400–1000) batches are
// "phantom" (counts only) but follow the identical control flow.
//
// Execution strategies (Sections 4.3 and 5.2):
//
//   - DualShuffle:     repartition both tables on the join key;
//   - Broadcast:       broadcast qualifying build tuples to all nodes,
//     probe entirely locally;
//   - Prepartitioned:  both tables already co-partitioned: no exchange;
//   - heterogeneous execution: only the (Beefy) BuildNodes own hash
//     tables; Wimpy nodes scan, filter and ship.
//
// All of them are one stage composed twice. Both inputs of a hash join
// go through the same scan → select → exchange → hash chain, so join.go
// describes a side as an exchange value and Handle.exchange spawns it:
// a consumer task per hash-table owner (grouped mailbox drain, CPU charged
// per group, fold), then per node a scan task and the ship task it feeds
// through a bounded queue. The five per-side values are the source
// cursor (open: the scan, behind the build barrier on the probe side),
// the routing policy (route), the end-of-stream fan-out (eos), what a
// received batch does to the owner's hash table (fold) and the barrier
// the consumers release (done). LaunchJoin is admission, exchange(build),
// exchange(probe), finalize — in that order, because spawn order is
// (time, seq) order and so part of the simulated result.
package pstore

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/delta"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// JoinMethod selects the physical plan for a partition-incompatible join.
type JoinMethod int

const (
	// DualShuffle repartitions both inputs on the join key (§4.3.1).
	DualShuffle JoinMethod = iota
	// Broadcast ships all qualifying build tuples to every build node and
	// probes locally (§4.3.2).
	Broadcast
	// Prepartitioned assumes partition-compatible inputs: no exchange
	// (the "prepartitioned (no network)" plan of Figure 5).
	Prepartitioned
)

func (m JoinMethod) String() string {
	switch m {
	case DualShuffle:
		return "dual-shuffle"
	case Broadcast:
		return "broadcast"
	default:
		return "prepartitioned"
	}
}

// Config holds engine-wide execution parameters.
type Config struct {
	// BatchRows is the number of tuples per exchange batch. Larger
	// batches mean fewer simulation events; the default (1 MB worth of
	// the paper's 20-byte projected tuples) keeps paper-scale runs fast
	// while staying far below meter and phase granularity.
	BatchRows int
	// WarmCache selects CPU-rate scans (working set cached — the
	// Vertica and §5.3.1 validation regime). When false, scans stream
	// from disk at I MB/s through a prefetch pipeline.
	WarmCache bool
	// JoinWork is the CPU cost, in bytes charged per qualified byte, of
	// hash-table build and probe work on the receiving node (the scan
	// side is charged at raw bytes). Default 1.0.
	JoinWork float64
	// MailboxCap bounds buffered batches per operator input (default 16).
	MailboxCap int
}

// Validate sanity-checks the configuration. A negative or NaN JoinWork
// would panic a CPU server mid-query, and an infinite one would book work
// that never completes.
func (c Config) Validate() error {
	if !(c.JoinWork >= 0 && c.JoinWork <= math.MaxFloat64) { // rejects NaN and +Inf
		return fmt.Errorf("pstore: join work must be finite and >= 0, got %v", c.JoinWork)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.BatchRows <= 0 {
		c.BatchRows = 50_000 // 1 MB of 20-byte tuples
	}
	if c.JoinWork == 0 {
		c.JoinWork = 1.0
	}
	if c.MailboxCap <= 0 {
		c.MailboxCap = 16
	}
	return c
}

// JoinSpec describes one hash-join query.
type JoinSpec struct {
	// Build and Probe define the two inputs (build = inner, e.g. ORDERS;
	// probe = outer, e.g. LINEITEM).
	Build, Probe storage.TableDef
	// BuildSel and ProbeSel are the predicate selectivities (0..1].
	BuildSel, ProbeSel float64
	Method             JoinMethod
	// BuildNodes lists the node IDs that own hash-table partitions.
	// nil/empty means all nodes (homogeneous execution); a Beefy subset
	// yields heterogeneous execution.
	BuildNodes []int
}

// Validate sanity-checks the spec against a cluster.
func (s JoinSpec) Validate(c *cluster.Cluster) error {
	if !(s.BuildSel > 0 && s.BuildSel <= 1 && s.ProbeSel > 0 && s.ProbeSel <= 1) { // rejects NaN
		return fmt.Errorf("pstore: selectivities must be in (0,1], got build=%v probe=%v",
			s.BuildSel, s.ProbeSel)
	}
	for _, id := range s.BuildNodes {
		if id < 0 || id >= len(c.Nodes) {
			return fmt.Errorf("pstore: build node %d out of range", id)
		}
	}
	if s.Build.Materialize != s.Probe.Materialize {
		return fmt.Errorf("pstore: build/probe materialization must match")
	}
	for _, d := range []storage.TableDef{s.Build, s.Probe} {
		if d.RowsOverride > 0 {
			continue
		}
		if !tpch.RowsFit(d.Table, d.SF) {
			return fmt.Errorf("pstore: %v at SF %v has more rows than an int64 holds", d.Table, d.SF)
		}
		if d.TotalRows() <= 0 {
			return fmt.Errorf("pstore: %v at SF %v has no rows", d.Table, d.SF)
		}
	}
	return nil
}

// JoinResult reports one executed join.
type JoinResult struct {
	// Seconds is the query response time (virtual).
	Seconds float64
	// OutputRows is the join result cardinality.
	OutputRows int64
	// Checksum is a content checksum of the join output (materialized
	// runs only), for verification against a reference join.
	Checksum uint64
	// MaxHashTableBytes is the largest per-node build table.
	MaxHashTableBytes float64
	// BuildRowsTotal is the number of qualified build rows.
	BuildRowsTotal int64
}

// Exec binds the engine to a cluster.
type Exec struct {
	C      *cluster.Cluster
	cfg    Config
	deltas *delta.Set

	// inflight holds launched-but-not-finalized handles in launch order,
	// so AbortInFlight visits queries deterministically. Like the delta
	// set, this is live mutable state bound to the Exec instance, never
	// Config — it must not leak into join-cache fingerprints.
	inflight []*Handle
	// openCursors counts live scan cursors; Exec-level leak accounting
	// for abort paths (see OpenCursors).
	openCursors int
}

// New creates an engine instance on the given cluster.
func New(c *cluster.Cluster, cfg Config) *Exec {
	return &Exec{C: c, cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (e *Exec) Config() Config { return e.cfg }

// AttachDeltas routes this engine's scans through the delta stores'
// merged views: a scan of a (table, node) with a registered store reads
// base blocks with the unmerged overlay applied instead of the raw
// partition. Deltas attach to the Exec instance, NOT to Config,
// deliberately: the store set is live mutable state and must never leak
// into the join cache's content fingerprint.
func (e *Exec) AttachDeltas(ds *delta.Set) { e.deltas = ds }

// deltaFor returns the attached store for (table, node), or nil.
func (e *Exec) deltaFor(t tpch.Table, node int) *delta.Store {
	return e.deltas.For(t, node) // nil-receiver safe
}
