// Package delta is the write path of the simulated cluster: a per-node
// append/delta store in front of the scan-visible storage.Partition
// blocks, the structure every HTAP column store (SAP HANA's delta
// store, Vertica's WOS) uses to absorb transactional writes without
// rewriting the read-optimized base.
//
// A Store accepts keyed insert/update/delete batches through the DES
// engine — every ingested byte books the owning node's CPU rate server,
// so transactional work contends with analytics for the same simulated
// hardware. Unmerged writes accumulate in a tail; scans read the store
// through MergedCursor, a storage.Cursor presenting the merged view
// (base blocks with deleted/updated rows shadowed out, then the live
// tail), so analytics always see current data without waiting for a
// merge. A periodic merge process (StartMerger) folds the tail into the
// base under a size/age policy, charging merge CPU on the owning node —
// the background-work interference the paper's read-only energy numbers
// leave out.
//
// Like the rest of the simulation, the store runs in two regimes: at
// paper scale batches are phantom (counts only, exact row accounting);
// at test scale generic single-key tables materialize and the merged
// view is verified row-for-row.
package delta

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// applyWork and mergeWork are the store's CPU costs in charged bytes per
// byte. Ingesting a byte into the tail hashes the key and appends the
// version, heavier than a scan's sequential read; a merge reads the old
// base and tail and writes the new base.
const applyWork, mergeWork = 2, 2

// Config sets the store's merge policy.
type Config struct {
	// MaxTailRows triggers a merge when the live tail exceeds it
	// (default 20M rows — 400 MB of 20-byte tuples).
	MaxTailRows int64
	// MaxTailAge triggers a merge when the oldest unmerged write is
	// older than this many virtual seconds (default 10).
	MaxTailAge float64
	// CheckEvery is the merge scheduler's policy poll period in virtual
	// seconds (default 1).
	CheckEvery float64
}

func (c Config) withDefaults() Config {
	if c.MaxTailRows == 0 {
		c.MaxTailRows = 20_000_000
	}
	if c.MaxTailAge == 0 {
		c.MaxTailAge = 10
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 1
	}
	return c
}

// Op is a write operation kind.
type Op int

const (
	// OpInsert appends new rows. Inserted keys are assumed absent from
	// the base (fresh keys): no base shadowing happens, and re-inserting
	// a key already live in the tail is a no-op.
	OpInsert Op = iota
	// OpUpsert writes new versions of existing rows: the old copies
	// (base or tail) are shadowed and the new versions appended.
	OpUpsert
	// OpDelete removes rows: base copies are shadowed, tail versions
	// killed.
	OpDelete
)

// Write is one transactional batch applied to a store. Phantom stores
// use only Op and Rows (exact count accounting); materialized stores
// additionally require the addressed Keys (len(Keys) == Rows).
type Write struct {
	Op   Op
	Rows int
	Keys []int64
}

// Store is one node's delta store over one table partition.
type Store struct {
	def  storage.TableDef
	node int
	cpu  *sim.Server
	cfg  Config

	// Base: the scan-visible merged blocks. baseBatches is nil in the
	// phantom regime, where only baseRows is tracked.
	baseRows    int64
	baseBatches []storage.Batch

	// Phantom overlay accounting: appended tail rows and base rows
	// currently shadowed by upserts/deletes.
	tailRows int64
	shadowed int64

	// Materialized overlay: tombstoned base keys, plus the tail as an
	// append-only version log (tailKeys/tailLive) indexed by key
	// (tailIdx maps key -> position+1 of its latest version).
	tomb     *storage.Int64Table
	tailKeys []int64
	tailLive []bool
	tailIdx  *storage.Int64Table
	tailDead int64

	dirty    bool     // tail non-empty since the last merge
	oldestAt sim.Time // arrival of the oldest unmerged write

	txns    int64
	rowsIn  int64
	merges  int
	stopped bool
}

// NewStore wraps a node's partition in a delta store. The partition's
// blocks become the initial base; writes land in the tail until merged.
// Materialized partitions are supported for generic single-key tables
// only (the schema storage gives every table outside the wired
// TPC-H four), because a tail row carries just its key.
func NewStore(part *storage.Partition, node int, cpu *sim.Server, cfg Config) (*Store, error) {
	s := &Store{
		def:  part.Def,
		node: node,
		cpu:  cpu,
		cfg:  cfg.withDefaults(),

		baseRows: part.Rows,
	}
	if part.Def.Materialize {
		switch part.Def.Table {
		case tpch.Lineitem, tpch.Orders, tpch.Customer, tpch.Supplier:
			return nil, fmt.Errorf("delta: materialized %v has a multi-column schema; delta stores materialize generic single-key tables only", part.Def.Table)
		}
		s.baseBatches = part.Batches(0) // a materialized partition keeps PartitionTable's block size
		s.tomb = storage.NewInt64Table(0)
		s.tailIdx = storage.NewInt64Table(0)
	}
	return s, nil
}

// Apply ingests one write batch, charging the owning node's CPU for the
// write-path work (rows x width x applyWork bytes). The calling process
// blocks for the simulated service time, so a saturated CPU throttles
// the update stream — the contention under measurement.
func (s *Store) Apply(p *sim.Proc, w Write) error {
	if w.Rows <= 0 {
		return nil
	}
	s.cpu.Process(p, float64(w.Rows)*float64(s.def.Width)*applyWork)
	if !s.dirty {
		s.dirty = true
		s.oldestAt = p.Now()
	}
	s.txns++
	s.rowsIn += int64(w.Rows)
	if s.baseBatches == nil {
		s.applyPhantom(w)
		return nil
	}
	if len(w.Keys) != w.Rows {
		return fmt.Errorf("delta: materialized write needs %d keys, got %d", w.Rows, len(w.Keys))
	}
	s.applyMaterialized(w)
	return nil
}

// applyPhantom does exact count accounting: inserts grow the tail;
// upserts shadow base copies (while any remain unshadowed) and append
// new versions; deletes shadow base copies.
func (s *Store) applyPhantom(w Write) {
	n := int64(w.Rows)
	switch w.Op {
	case OpInsert:
		s.tailRows += n
	case OpUpsert:
		s.shadowed += min64(n, s.baseRows-s.shadowed)
		s.tailRows += n
	case OpDelete:
		s.shadowed += min64(n, s.baseRows-s.shadowed)
	}
}

func (s *Store) applyMaterialized(w Write) {
	for _, k := range w.Keys {
		switch w.Op {
		case OpInsert:
			s.appendKey(k)
		case OpUpsert:
			s.appendKey(k)
			// Shadow the base copies: the tail now holds k's latest
			// version.
			if s.tomb.Get(k) == 0 {
				s.tomb.Add(k, 1)
			}
		case OpDelete:
			s.deleteKey(k)
		}
	}
}

// appendKey appends a new live version of k unless the tail already
// holds one.
func (s *Store) appendKey(k int64) {
	if pos := s.tailIdx.Get(k); pos > 0 && s.tailLive[pos-1] {
		return // latest version already in the tail
	}
	s.tailKeys = append(s.tailKeys, k)
	s.tailLive = append(s.tailLive, true)
	s.setTailPos(k, len(s.tailKeys))
}

// deleteKey kills the live tail version of k (if any) and shadows any
// base copies.
func (s *Store) deleteKey(k int64) {
	if pos := s.tailIdx.Get(k); pos > 0 && s.tailLive[pos-1] {
		s.tailLive[pos-1] = false
		s.tailDead++
	}
	if s.tomb.Get(k) == 0 {
		s.tomb.Add(k, 1)
	}
}

// setTailPos stores pos as tailIdx[k] (Int64Table is additive, so add
// the difference from the current value).
func (s *Store) setTailPos(k int64, pos int) {
	s.tailIdx.Add(k, int64(pos)-s.tailIdx.Get(k))
}

// liveTailRows returns the tail rows visible to a merged scan.
func (s *Store) liveTailRows() int64 {
	if s.baseBatches == nil {
		return s.tailRows
	}
	return int64(len(s.tailKeys)) - s.tailDead
}

// TailBytes returns the memory the unmerged tail pins on the owning
// node: live tail rows times row width. The planner's admission check
// subtracts this from the node's budget before sizing join hash tables.
func (s *Store) TailBytes() float64 {
	return float64(s.liveTailRows()) * float64(s.def.Width)
}

// Stats reports the store's write-path counters.
type Stats struct {
	Txns   int64 // write batches applied
	Rows   int64 // rows ingested
	Merges int   // merge cycles completed
}

// Stats returns the store's counters so far.
func (s *Store) Stats() Stats { return Stats{Txns: s.txns, Rows: s.rowsIn, Merges: s.merges} }

// Stop marks the store stopped: the merge scheduler exits at its next
// tick and any merge that has not started its fold aborts, closing its
// merge cursor. Writes are still accepted (drain semantics).
func (s *Store) Stop() { s.stopped = true }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Set maps (table, node) to the node's delta store — what an engine
// attaches so scans route through the merged view.
type Set struct {
	stores map[setKey]*Store
}

type setKey struct {
	table tpch.Table
	node  int
}

// NewSet returns an empty store set.
func NewSet() *Set { return &Set{stores: make(map[setKey]*Store)} }

// Attach registers a store for (table, node), replacing any previous
// registration.
func (ds *Set) Attach(t tpch.Table, node int, s *Store) {
	ds.stores[setKey{t, node}] = s
}

// For returns the store registered for (table, node), or nil.
func (ds *Set) For(t tpch.Table, node int) *Store {
	if ds == nil {
		return nil
	}
	return ds.stores[setKey{t, node}]
}

// sortedKeys returns the registration keys in (table, node) order, so
// every aggregation over the set is independent of map iteration order.
func (ds *Set) sortedKeys() []setKey {
	keys := make([]setKey, 0, len(ds.stores))
	for k := range ds.stores {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].node < keys[j].node
	})
	return keys
}

// NodeTailBytes sums the unmerged tail bytes of every store owned by
// the node — the write path's claim on that node's memory. Stores are
// summed in (table, node) key order: float addition is not
// associative, so a map-order sum could differ between two runs and
// flip a borderline admission decision.
func (ds *Set) NodeTailBytes(node int) float64 {
	if ds == nil {
		return 0
	}
	var b float64
	for _, k := range ds.sortedKeys() {
		if k.node == node {
			b += ds.stores[k].TailBytes()
		}
	}
	return b
}
