package storage

import (
	"math"

	"repro/internal/tpch"
)

// Cursor is the streaming interface batches flow through between
// operators: a pull-based lazy sequence of blocks. Operators compose as
// cursor combinators (a filter wraps a scan, a join pulls from both
// inputs) so no stage ever materializes an intermediate batch slice —
// at paper scale a single scan is tens of thousands of blocks per node,
// and the slices between operators, not the DES kernel, were what
// capped the reachable scale factor by memory.
type Cursor interface {
	// Next returns the next batch; ok=false when the stream is
	// exhausted. Exhaustion is final: implementations need not be
	// re-iterable.
	Next() (b Batch, ok bool)
	// Close terminates the stream early: every subsequent Next returns
	// ok=false and any upstream work feeding this cursor stops being
	// charged to the simulation (a cold scan's disk pump exits, a
	// combinator closes its inputs). Close after exhaustion is a no-op;
	// closing an already-closed cursor is safe. LIMIT-style consumers
	// and aborted delta merges use this so a partially-read plan does
	// not drain its scans to the end.
	Close()
}

// BatchCursor streams a partition's blocks one at a time — the leaf
// cursor every operator pipeline bottoms out in. It never materializes
// the block slice: a phantom block is synthesized from the remaining row
// count, and a materialized block's columns are generated from its row
// IDs as it is pulled: Next walks the partition's bitmap from where the
// last block ended and extracts the block's IDs into scratch it reuses.
type BatchCursor struct {
	set   []uint64      // the partition's bitmap; nil for phantom blocks
	at    int64         // set: the bit after the last row read
	ids   []uint32      // set: the block's row IDs, reused across blocks
	cols  []tpch.Column // generators of the stored columns
	left  int           // rows remaining
	rows  int           // rows per block
	width int
}

var _ Cursor = (*BatchCursor)(nil)

// Cursor returns a cursor over the partition's blocks: of blockRows
// rows each for a phantom partition, of the size PartitionTable was
// given for a materialized one.
func (p *Partition) Cursor(blockRows int) BatchCursor {
	if p.set != nil {
		blockRows = p.blockRows
	}
	return BatchCursor{set: p.set, cols: p.cols, left: int(p.Rows), rows: blockRows, width: p.Def.Width}
}

// Costs returns a cursor over the blocks Cursor yields that carries
// their sizes and no data: what a scan that decides its predicate from
// the partition's bitmap (Select) charges simulated time on.
func (p *Partition) Costs(blockRows int) BatchCursor {
	c := p.Cursor(blockRows)
	c.set = nil
	return c
}

// Next returns the next block; ok is false when the partition is
// exhausted.
func (c *BatchCursor) Next() (b Batch, ok bool) {
	if c.left <= 0 {
		return Batch{}, false
	}
	b = Batch{Rows: min(c.rows, c.left), Width: c.width}
	c.left -= b.Rows
	if c.set != nil {
		c.at, c.ids = c.cols[ColKey].Select(c.set[c.at>>6:], c.at, b.Rows, math.MaxInt64, c.ids[:0]) // no bound: every row
		b.Cols = make([]Int64Column, len(c.cols))
		for k, col := range c.cols {
			b.Cols[k] = make(Int64Column, b.Rows)
			col.Gen(c.ids, b.Cols[k])
		}
	}
	return b, true
}

// Close drops the remaining blocks; subsequent Next returns ok=false.
func (c *BatchCursor) Close() {
	c.set = nil
	c.left = 0
}
