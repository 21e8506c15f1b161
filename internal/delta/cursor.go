package delta

import "repro/internal/storage"

// MergedCursor returns a storage.Cursor over the store's merged view:
// the base blocks with shadowed (deleted/updated) rows filtered out,
// followed by the live tail in blocks of up to blockRows. This is what
// a scan reads instead of the raw partition, so analytics see every
// committed write without waiting for a merge.
//
// The cursor snapshots the base and the tail LENGTH at open; tombstone
// and tail-liveness lookups read through to the store (read-uncommitted
// overlay visibility, like a real delta store's scans). A merge swaps
// in fresh base/overlay structures, so a cursor opened before the merge
// keeps iterating its pre-merge snapshot consistently.
//
// With an empty overlay the yielded block sequence is identical to
// storage.Partition.Cursor's, so attaching a quiescent delta store to a
// scan changes nothing — timing or bytes.
func (s *Store) MergedCursor(blockRows int) storage.Cursor {
	if s.baseBatches == nil {
		c := &phantomMerged{
			blockRows: blockRows,
			width:     s.def.Width,
			baseLeft:  s.baseRows,
			baseTotal: s.baseRows,
			survive:   s.baseRows - s.shadowed,
			tailLeft:  s.tailRows,
		}
		return c
	}
	return &materializedMerged{
		s:         s,
		blockRows: blockRows,
		batches:   s.baseBatches,
		tomb:      s.tomb,
		tailKeys:  s.tailKeys,
		tailLive:  s.tailLive,
	}
}

// phantomMerged shrinks each synthesized base block by the overlay's
// survivor fraction with a fractional-row accumulator (the same exact
// remainder accounting the scan filter uses), then appends the tail —
// totals are exact: survive + tailRows rows over the whole stream.
type phantomMerged struct {
	blockRows int
	width     int

	baseLeft  int64
	baseTotal int64
	survive   int64 // base rows not shadowed at open
	acc       float64

	tailLeft int64
	closed   bool
}

var _ storage.Cursor = (*phantomMerged)(nil)

func (c *phantomMerged) Next() (storage.Batch, bool) {
	if c.closed {
		return storage.Batch{}, false
	}
	frac := 1.0
	if c.baseTotal > 0 {
		frac = float64(c.survive) / float64(c.baseTotal)
	}
	for c.baseLeft > 0 {
		r := int64(c.blockRows)
		if c.baseLeft < r {
			r = c.baseLeft
		}
		c.baseLeft -= r
		c.acc += float64(r) * frac
		take := int(c.acc)
		c.acc -= float64(take)
		if take > 0 {
			return storage.Batch{Rows: take, Width: c.width}, true
		}
	}
	if c.tailLeft > 0 {
		r := int64(c.blockRows)
		if c.tailLeft < r {
			r = c.tailLeft
		}
		c.tailLeft -= r
		return storage.Batch{Rows: int(r), Width: c.width}, true
	}
	return storage.Batch{}, false
}

func (c *phantomMerged) Close() { c.closed = true }

// materializedMerged filters each base block against the tombstone set,
// then chunks the live tail into key-column batches.
type materializedMerged struct {
	s         *Store
	blockRows int

	batches  []storage.Batch
	i        int
	tomb     *storage.Int64Table
	tailKeys []int64
	tailLive []bool
	ti       int

	idx    []int // survivor scratch, reused across blocks
	closed bool
}

var _ storage.Cursor = (*materializedMerged)(nil)

func (c *materializedMerged) Next() (storage.Batch, bool) {
	if c.closed {
		return storage.Batch{}, false
	}
	for c.i < len(c.batches) {
		b := c.batches[c.i]
		c.i++
		if c.tomb.Len() == 0 {
			return b, true
		}
		c.idx = c.idx[:0]
		for r, k := range b.Cols[storage.ColKey] {
			if c.tomb.Get(k) == 0 {
				c.idx = append(c.idx, r)
			}
		}
		if len(c.idx) == b.Rows {
			return b, true
		}
		if len(c.idx) > 0 {
			return storage.FilterBatch(b, c.idx), true
		}
	}
	for c.ti < len(c.tailKeys) {
		col := make(storage.Int64Column, 0, c.blockRows)
		for c.ti < len(c.tailKeys) && len(col) < c.blockRows {
			if c.tailLive[c.ti] {
				col = append(col, c.tailKeys[c.ti])
			}
			c.ti++
		}
		if len(col) > 0 {
			return storage.Batch{
				Rows: len(col), Width: c.s.def.Width,
				Cols: []storage.Int64Column{col},
			}, true
		}
	}
	return storage.Batch{}, false
}

func (c *materializedMerged) Close() {
	c.closed = true
	c.batches = nil
	c.tailKeys = nil
	c.tailLive = nil
}
