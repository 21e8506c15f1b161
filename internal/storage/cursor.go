package storage

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
// cursor every operator pipeline bottoms out in. Unlike Batches, a
// phantom partition's cursor never materializes the block slice: blocks
// are synthesized on demand from the remaining row count.
type BatchCursor struct {
	batches []Batch // materialized blocks; nil for phantom partitions
	i       int
	left    int // phantom rows remaining
	rows    int // phantom rows per block
	width   int
}

var _ Cursor = (*BatchCursor)(nil)

// Cursor returns a cursor over the partition's blocks of blockRows each.
func (p *Partition) Cursor(blockRows int) BatchCursor {
	if p.batches != nil {
		return BatchCursor{batches: p.batches}
	}
	return BatchCursor{left: int(p.Rows), rows: blockRows, width: p.Def.Width}
}

// Next returns the next block; ok is false when the partition is
// exhausted.
func (c *BatchCursor) Next() (b Batch, ok bool) {
	if c.batches != nil {
		if c.i >= len(c.batches) {
			return Batch{}, false
		}
		b = c.batches[c.i]
		c.i++
		return b, true
	}
	if c.left <= 0 {
		return Batch{}, false
	}
	r := c.rows
	if c.left < r {
		r = c.left
	}
	c.left -= r
	return Batch{Rows: r, Width: c.width}, true
}

// Close drops the remaining blocks; subsequent Next returns ok=false.
func (c *BatchCursor) Close() {
	c.batches = nil
	c.i = 0
	c.left = 0
}
