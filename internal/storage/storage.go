// Package storage implements the read-optimized columnar storage engine
// that P-store is built on (the paper builds on the block-iterator
// tuple-scan module and storage engine of Harizopoulos et al. [16]).
//
// The engine stores each table as int64 column vectors grouped into
// fixed-size blocks, and only the columns a scan reads: the join key and
// the selection column. A Batch is the unit flowing between operators: a
// slice of Int64Column plus a logical row count and tuple width. Batches
// come in two flavours:
//
//   - materialized: column data is present; operators compute real
//     results (used by functional tests and small-scale runs);
//   - phantom: only row counts/widths are tracked; operators perform the
//     same control flow and charge the same simulated resources, but
//     carry no data (used for paper-scale runs, SF 400-1000, where
//     materializing terabytes is impossible — DESIGN.md §5).
//
// Partitioning is the paper's placement scheme: hash segmentation on a
// chosen column (Vertica's hash segmentation).
//
// A materialized table is loaded by one parallel pass that routes
// every row and generates nothing (load.go): each table has one schema
// — its stored columns' generators and the generator of its
// segmentation column — and a partition is a bitmap over the table's
// rows, one bit per row per node, set where the row lives. Which rows a
// node holds, in row order, and so the blocks they are cut into, are
// those of a serial row-by-row load whatever the worker count;
// simulated time, energy and event counts therefore cannot move with
// GOMAXPROCS. A partition's Cursor walks the bitmap and generates each
// block's columns from its row IDs as the block is pulled; a scan
// decides its predicate as it walks (Select) and generates the key of
// the surviving rows alone.
package storage

import (
	"fmt"

	"repro/internal/tpch"
)

// Batch is a horizontal slice of a table flowing through operators.
type Batch struct {
	// Rows is the logical row count.
	Rows int
	// Width is bytes per tuple (projected width): simulated costs come
	// from Rows x Width, not from the columns Cols carries.
	Width int
	// Cols holds materialized column vectors, nil for phantom batches.
	// All columns have length Rows: a generated block's are its table's
	// stored columns (tableSchema), a scan's output the key alone.
	Cols []Int64Column
}

// Bytes returns the batch's logical size in bytes.
func (b Batch) Bytes() float64 { return float64(b.Rows) * float64(b.Width) }

// Phantom reports whether the batch carries no materialized data.
func (b Batch) Phantom() bool { return b.Cols == nil }

// Int64Column is a column vector. Every stored column is integral
// (keys, foreign keys, the selection column), so it is the only type.
type Int64Column []int64

// FilterBatch gathers the rows at idx from every column of b into new
// columns.
func FilterBatch(b Batch, idx []int) Batch {
	out := Batch{Rows: len(idx), Width: b.Width}
	if b.Phantom() {
		return out
	}
	out.Cols = make([]Int64Column, len(b.Cols))
	for k, c := range b.Cols {
		out.Cols[k] = make(Int64Column, len(idx))
		for j, i := range idx {
			out.Cols[k][j] = c[i]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Tables and partitions.

// Placement describes how a table is distributed across cluster nodes.
type Placement int

const (
	// HashSegmented partitions rows by hash of a key column (Vertica's
	// hash segmentation; §3.1).
	HashSegmented Placement = iota
)

func (Placement) String() string { return "hash-segmented" }

// TableDef describes one stored table (a projection in Vertica terms).
type TableDef struct {
	Table     tpch.Table
	SF        tpch.ScaleFactor
	Width     int // projected tuple width in bytes
	Placement Placement
	// SegmentColumn names the logical column whose hash drives
	// segmentation (informational; segmentation uses the key extractor).
	SegmentColumn string
	// Materialize controls whether partitions carry real data.
	Materialize bool
	// RowsOverride, when positive, replaces the TPC-H cardinality —
	// used for synthetic workloads such as the Figure 6 microbenchmark
	// (0.1M x 20M rows of 100 bytes).
	RowsOverride int64
}

// TotalRows returns the table cardinality.
func (d TableDef) TotalRows() int64 {
	if d.RowsOverride > 0 {
		return d.RowsOverride
	}
	return tpch.Rows(d.Table, d.SF)
}

// TotalBytes returns the projected table size in bytes.
func (d TableDef) TotalBytes() float64 { return float64(d.TotalRows()) * float64(d.Width) }

// Partition is the slice of a table resident on one node.
type Partition struct {
	Def  TableDef
	Rows int64
	// set is a materialized partition's rows (nil when phantom): a
	// bitmap over the table's rows, bit i%64 of set[i/64] set when row
	// i lives on this node. cols holds its stored columns' generators.
	set       []uint64
	cols      []tpch.Column
	blockRows int // the block size PartitionTable cut the partition into
}

// Batches returns the partition's blocks: Cursor's, in a slice.
func (p *Partition) Batches(blockRows int) []Batch {
	c := p.Cursor(blockRows)
	out := make([]Batch, 0, c.left/c.rows+1)
	for b, ok := c.Next(); ok; b, ok = c.Next() {
		out = append(out, b)
	}
	return out
}

// Select reads a materialized partition's next rows rows, from bit at
// of its bitmap on, and returns the join keys of those whose selection
// column — a generic table's key — is below thr, and the bit after the
// last row read. It decides the predicate as it walks the bitmap and
// generates the key of survivors alone; keep is scratch for their row
// IDs, returned for reuse.
func (p *Partition) Select(at int64, rows int, thr int64, keep []uint32) (Int64Column, int64, []uint32) {
	end, keep := p.cols[min(ColSel, len(p.cols)-1)].Select(p.set[at>>6:], at, rows, thr, keep[:0])
	keys := make(Int64Column, len(keep))
	p.cols[ColKey].Gen(keep, keys)
	return keys, end, keep
}

// PartitionTable hash-segments a table across n nodes,
// returning one Partition per node, each cut into blocks of blockRows rows.
// The loader in load.go routes every row once by the same Hash64 the
// exchange operator uses and writes its ID straight to its final
// position, so a partition's rows are in row-index order. Phantom
// partitions hold only row counts.
func PartitionTable(def TableDef, n int, blockRows int) ([]*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("storage: need at least one node, got %d", n)
	}
	if blockRows <= 0 {
		return nil, fmt.Errorf("storage: blockRows must be positive, got %d", blockRows)
	}
	total := def.TotalRows()
	if def.Materialize && n > maxNodes {
		return nil, fmt.Errorf("storage: a materialized table spans at most %d nodes, got %d", maxNodes, n)
	}
	if def.Materialize && total > maxRows {
		return nil, fmt.Errorf("storage: a materialized table holds at most %d rows, got %d", int64(maxRows), total)
	}
	parts := make([]*Partition, n)
	for i := range parts {
		parts[i] = &Partition{Def: def, blockRows: blockRows}
	}

	if def.Materialize {
		sch := tableSchema(def)
		sets, rows := load(sch, total, n)
		for nd, p := range parts {
			p.Rows, p.set, p.cols = rows[nd], sets[nd], sch.cols
		}
		return parts, nil
	}

	// Phantom: exact per-node counts without materializing values is
	// impractical for SF>=400 (billions of hash calls), so distribute
	// rows uniformly — justified because Hash64 balances dense keys to
	// within a fraction of a percent (see tpch tests) and the paper
	// assumes no skew. Remainder rows go to the lowest-numbered nodes.
	base := total / int64(n)
	rem := total % int64(n)
	for nd, p := range parts {
		p.Rows = base
		if int64(nd) < rem {
			p.Rows++
		}
	}
	return parts, nil
}
