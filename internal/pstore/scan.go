package pstore

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// scanCursor is the selection-pushdown scan: the leaf of every operator
// pipeline. Each Pull takes blocks, charges the scan's resources,
// evaluates the predicate inside the block read, and yields only the
// qualifying rows — downstream operators never see raw blocks and no
// intermediate batch slice exists anywhere on the path. Resource
// charging per block:
//
//   - cold cache: a disk prefetch task books the disk server at I
//     MB/s for raw bytes, feeding a bounded queue; Pull books the CPU at
//     C MB/s for the same raw bytes. The pipeline overlaps the two, so
//     the effective scan rate is min(I, C) — the paper's disk-bound
//     regime;
//   - warm cache: only the CPU is charged (the §5.3.1 validation regime:
//     "we changed the scan rate of the build phase to that of the
//     maximum CPU bandwidth").
//
// Filtering: over a materialized partition the scan reads blocks that
// carry only their sizes, keeps its position in the partition's bitmap
// as the blocks arrive in order, decides "selcol < threshold" from the
// row IDs as it walks the bitmap and generates only the join key of the
// surviving rows, the one column every consumer reads (what is charged
// is Rows x Width either way). Blocks of a delta store's merged view
// carry columns and are filtered on them. Phantom batches shrink
// analytically with deterministic remainder accounting so total
// qualified rows are exact.
type scanCursor struct {
	node *cluster.Node
	exec *Exec
	sel  float64
	thr  int64

	acc  float64            // phantom fractional-row accumulator
	idx  []int              // merged-view row-index scratch, reused across blocks
	part *storage.Partition // materialized partition read from its bitmap; nil otherwise
	at   int64              // part: the bitmap bit after the blocks already read
	keep []uint32           // part: surviving row-ID scratch, reused across blocks

	raw      storage.Batch // the block whose CPU charge is running
	charged  bool          // raw is charged: the next Pull filters it
	warm     bool
	cur      storage.Cursor            // warm path: direct block reads
	prefetch *sim.Queue[storage.Batch] // cold path: disk-pump output
	stop     bool                      // cold path: tells the pump to exit
	closed   bool
	released bool // openCursors already decremented
}

// keyCols is the scan projection: the join key alone, all that the
// hash-table build and the probe read.
const keyCols = storage.ColKey + 1

// scan opens the scan-filter cursor over a node-local partition. Cold
// scans spawn the disk-pump task here, so construction must happen at the
// operator's start position.
//
// When the engine has a delta store attached for (table, node), the
// block source is the store's merged view — base blocks with the
// unmerged overlay applied — instead of the raw partition.
func (e *Exec) scan(node *cluster.Node, part *storage.Partition, sel float64) *scanCursor {
	if st := e.deltaFor(part.Def.Table, node.ID); st != nil {
		return e.scanBlocks(node, st.MergedCursor(e.cfg.BatchRows), nil, sel)
	}
	bc := part.Costs(e.cfg.BatchRows)
	if !part.Def.Materialize {
		part = nil
	}
	return e.scanBlocks(node, &bc, part, sel)
}

// scanBlocks opens the scan over the blocks src yields; part, when not
// nil, is the materialized partition they are the cost-only blocks of.
func (e *Exec) scanBlocks(node *cluster.Node, src storage.Cursor, part *storage.Partition, sel float64) *scanCursor {
	c := &scanCursor{
		node: node, exec: e, sel: sel, part: part,
		thr:  tpch.SelThreshold(sel),
		warm: e.cfg.WarmCache,
	}
	e.openCursors++
	if c.warm {
		c.cur = src
		return c
	}
	c.prefetch = sim.NewQueue[storage.Batch](fmt.Sprintf("n%d.prefetch", node.ID), 4)
	var b storage.Batch
	var read bool // b is off the disk, not yet in the prefetch queue
	e.C.Eng.GoTask(fmt.Sprintf("n%d.diskpump", node.ID), func(t *sim.Task) {
		for !c.stop {
			if !read {
				if b, read = src.Next(); !read {
					break
				}
				node.Disk.ProcessAsync(b.Bytes(), t.Step)
				return
			}
			if !c.prefetch.TryPut(b) {
				c.prefetch.WaitPut(t)
				return
			}
			read = false
		}
		src.Close()
		c.prefetch.Close()
	})
	return c
}

// Pull, run by the task t that owns the cursor, returns the next non-empty
// filtered batch, or done once the partition is exhausted. An empty batch,
// not done, means the pull waits on the CPU or the disk: t is stepped when
// it can go on, and the next Pull continues it to a batch or exhaustion.
func (c *scanCursor) Pull(t *sim.Task) (b storage.Batch, done bool) {
	for !c.closed {
		if c.charged {
			b, c.raw, c.charged = c.filter(c.raw), storage.Batch{}, false
			if b.Rows > 0 {
				return b, false
			}
			continue
		}
		var ok bool
		if c.warm {
			b, ok = c.cur.Next()
		} else if b, ok = c.prefetch.TryGet(); !ok && !c.prefetch.Closed() {
			c.prefetch.WaitGet(t)
			return storage.Batch{}, false
		}
		if !ok {
			// Exhausted: the scan released its resources on its own
			// (the block source / disk pump has shut down), so it no
			// longer counts as open even without an explicit Close.
			c.release()
			break
		}
		// CPU cost of scan+select+project: raw bytes through the pipeline.
		c.raw, c.charged = b, true
		c.node.CPU.ProcessAsync(b.Bytes(), t.Step)
		return storage.Batch{}, false
	}
	return storage.Batch{}, true
}

// Close terminates the scan early. Warm scans close the block source;
// cold scans flag the disk pump to exit and drain the prefetch queue so
// a pump parked on the full queue wakes, observes the flag and shuts
// the pipeline down — no further disk or CPU time is booked for blocks
// nobody will read. (The drain may leave the pump one in-flight block
// of grace; it is never delivered.)
func (c *scanCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.release()
	if c.warm {
		c.cur.Close()
		return
	}
	c.stop = true
	for {
		if _, ok := c.prefetch.TryGet(); !ok {
			break
		}
	}
}

// release decrements the engine's open-cursor count exactly once, on
// Close or on exhaustion, whichever comes first.
func (c *scanCursor) release() {
	if c.released {
		return
	}
	c.released = true
	c.exec.openCursors--
}

// filter applies the pushed-down selection and projection to one raw
// block.
func (c *scanCursor) filter(b storage.Batch) storage.Batch {
	if c.part != nil {
		var keys storage.Int64Column
		keys, c.at, c.keep = c.part.Select(c.at, b.Rows, c.thr, c.keep)
		return storage.Batch{Rows: len(keys), Width: b.Width, Cols: []storage.Int64Column{keys}}
	}
	if b.Phantom() {
		c.acc += float64(b.Rows) * c.sel
		take := int(c.acc)
		c.acc -= float64(take)
		return storage.Batch{Rows: take, Width: b.Width}
	}
	c.idx = c.idx[:0]
	for r, v := range b.Cols[min(storage.ColSel, len(b.Cols)-1)] { // a generic table selects on its key
		if v < c.thr {
			c.idx = append(c.idx, r)
		}
	}
	b.Cols = b.Cols[:keyCols]
	return storage.FilterBatch(b, c.idx)
}
