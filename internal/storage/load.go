package storage

import (
	"sync"

	"repro/internal/par"
	"repro/internal/tpch"
)

// Column indexes of materialized batches. tableSchema places each
// generator at its index, so the stored layout and these constants are
// one definition: two generators on one index do not compile.
//
// A table stores only the columns a scan reads: the join key, then the
// selection column. A generic single-key table stores its key alone and
// selects on it.
const (
	ColKey = 0 // join key column of every table
	ColSel = 1 // selection column of every TPC-H table
)

// schema is the one description of a materialized table: the generators
// of its stored columns in batch order, and the generator of the column
// that hash segmentation routes on.
type schema struct {
	cols    []tpch.Column
	segment tpch.Column // need not be stored: L_SHIPDATE and O_CUSTKEY are not
}

// tableSchema returns def's schema. The segmentation column is the one
// SegmentColumn names; unknown names fall back to the table default,
// which reproduces the paper's layouts:
//
//   - §3.1 (Vertica): LINEITEM on L_ORDERKEY, ORDERS on O_CUSTKEY — a
//     LINEITEM⋈ORDERS join on ORDERKEY is then partition-incompatible on
//     the ORDERS side;
//   - §4.3 (P-store): LINEITEM on L_SHIPDATE and ORDERS on O_CUSTKEY make
//     the join incompatible on BOTH sides, forcing the dual shuffle.
//
// Every other table is segmented on its stored key column, so a row on
// node d always satisfies Hash64(cols[ColKey]) % n == d — the
// placement the exchange router and Prepartitioned joins assume.
func tableSchema(def TableDef) schema {
	switch def.Table {
	case tpch.Lineitem:
		c := tpch.LineitemColumns()
		s := schema{segment: c.OrderKey, cols: []tpch.Column{ColKey: c.OrderKey, ColSel: c.SelCol}}
		if def.SegmentColumn == "L_SHIPDATE" {
			s.segment = c.ShipDate
		}
		return s
	case tpch.Orders:
		c := tpch.OrderColumns(def.SF)
		s := schema{segment: c.CustKey, cols: []tpch.Column{ColKey: c.OrderKey, ColSel: c.SelCol}}
		if def.SegmentColumn == "O_ORDERKEY" {
			s.segment = c.OrderKey
		}
		return s
	case tpch.Customer:
		c := tpch.CustomerColumns()
		return schema{segment: c.CustKey, cols: []tpch.Column{ColKey: c.CustKey, ColSel: c.SelCol}}
	case tpch.Supplier:
		c := tpch.SupplierColumns()
		return schema{segment: c.SuppKey, cols: []tpch.Column{ColKey: c.SuppKey, ColSel: c.SelCol}}
	default:
		// Generic single-key table: the key is the row index.
		key := tpch.RowIndexColumn()
		return schema{segment: key, cols: []tpch.Column{ColKey: key}}
	}
}

const (
	// chunkRows is the loader's unit of parallel work. It fixes how rows
	// are grouped, never where they land, so it is a constant rather
	// than a function of the worker count: 64 Ki rows keep a worker's
	// scratch (mix + two columns, 1.5 MiB) near its L2 cache while a
	// table of a million rows still splits into enough chunks to
	// balance.
	chunkRows = 1 << 16
	// maxNodes bounds the node count of a materialized table: a row's
	// destination is stored in a uint16.
	maxNodes = 1 << 16
)

// chunk is the row range [lo, hi) of one unit of loader work.
type chunk struct{ lo, hi int64 }

// load generates every row of a table once and returns the columns
// sch.cols of each of n destination nodes: row i goes to node
// Hash64(segment key) % n, and a node's rows are in row-index order.
//
// It is a two-pass counting sort over fixed-size row chunks, each pass
// fanned out over GOMAXPROCS workers. Pass one computes every row's
// destination and counts rows per (chunk, node). Exclusive prefix sums
// of those counts, taken in chunk order, give each chunk the offset at
// which its rows start in each node's columns, and the totals size those
// columns exactly. Pass two generates each chunk's columns, then reads
// each row's destination once and stores all of its values at their
// final offset. Chunks write disjoint ranges, so the workers share
// nothing, and because the offsets depend only on the chunk order the
// result is the one a serial row-by-row append would build, whatever
// the worker count.
func load(sch schema, total int64, n int) [][]Int64Column {
	chunks := make([]chunk, 0, (total+chunkRows-1)/chunkRows)
	for lo := int64(0); lo < total; lo += chunkRows {
		chunks = append(chunks, chunk{lo, min(lo+chunkRows, total)})
	}

	// Pass one. A single destination needs no routing.
	var dest []uint16
	var offsets [][]int // offsets[c][nd]: where chunk c's rows start on node nd
	size := make([]int, n)
	if n == 1 {
		size[0] = int(total)
	} else {
		// A row goes to node Hash64(key) % n, the modulus taken by
		// multiplication; a drawn segment column of at most chunkRows values
		// (L_SHIPDATE has 2557) is routed by a value -> node table instead.
		m := tpch.NewModulus(uint64(n))
		var node []uint16
		if bound, ok := sch.segment.Bound(); ok && bound <= chunkRows {
			node = make([]uint16, bound)
			for v := range node {
				node[v] = uint16(m.Mod(tpch.Hash64(uint64(v))))
			}
		}
		dest = make([]uint16, total)
		offsets, _ = par.Map(0, chunks, func(_ int, c chunk) ([]int, error) {
			s := scratchPool.Get().(*scratch)
			defer scratchPool.Put(s)
			keys := s.columns(1)[0][:c.hi-c.lo]
			sch.segment.Fill(c.lo, s.mixFor(c, sch.segment), keys)
			counts, d := make([]int, n), dest[c.lo:c.hi]
			if node != nil {
				for j, k := range keys {
					d[j] = node[k]
					counts[d[j]]++
				}
			} else {
				for j, k := range keys {
					d[j] = uint16(m.Mod(tpch.Hash64(uint64(k))))
					counts[d[j]]++
				}
			}
			return counts, nil
		})
		for _, counts := range offsets {
			for nd, rows := range counts {
				counts[nd], size[nd] = size[nd], size[nd]+rows
			}
		}
	}

	// Each node's columns are allocated once, at their exact size; the
	// allocations (and the zeroing they pay) run in parallel too.
	out, _ := par.Map(0, size, func(_ int, rows int) ([]Int64Column, error) {
		cols := make([]Int64Column, len(sch.cols))
		for k := range cols {
			cols[k] = make(Int64Column, rows)
		}
		return cols, nil
	})

	// Pass two.
	par.Map(0, chunks, func(ci int, c chunk) (struct{}, error) {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		mix := s.mixFor(c, sch.cols...)
		if n == 1 {
			for k, col := range sch.cols {
				col.Fill(c.lo, mix, out[0][k][c.lo:c.hi])
			}
			return struct{}{}, nil
		}
		vals := s.columns(len(sch.cols))
		for k, col := range sch.cols {
			col.Fill(c.lo, mix, vals[k][:c.hi-c.lo])
		}
		// Row-major. The key, which every table stores, is written outside
		// the column loop: that halves the cost of a two-column scatter.
		d := dest[c.lo:c.hi]
		key, rest := vals[ColKey][:len(d)], vals[ColKey+1:]
		next := offsets[ci] // this chunk's last use of its offsets
		for j, nd := range d {
			at, into := next[nd], out[nd]
			next[nd]++
			into[ColKey][at] = key[j]
			for k, v := range rest {
				into[ColKey+1+k][at] = v[j]
			}
		}
		return struct{}{}, nil
	})
	return out
}

// scratch is a worker's buffers for one chunk: the row mixes and the
// generated columns. Pooled: allocating (faulting in, zeroing) fresh
// megabytes per chunk made BenchmarkPartitionTable about 15 % slower.
type scratch struct {
	mix  []uint64
	vals [][]int64
}

var scratchPool = sync.Pool{New: func() any { return &scratch{mix: make([]uint64, chunkRows)} }}

// columns returns k chunk-sized column buffers.
func (s *scratch) columns(k int) [][]int64 {
	for len(s.vals) < k {
		s.vals = append(s.vals, make([]int64, chunkRows))
	}
	return s.vals[:k]
}

// mixFor returns the row mixes the columns need to fill chunk c: none
// when every one of them is a function of the row index alone.
func (s *scratch) mixFor(c chunk, cols ...tpch.Column) []uint64 {
	for _, col := range cols {
		if !col.Sequential() {
			mix := s.mix[:c.hi-c.lo]
			tpch.MixRows(c.lo, mix)
			return mix
		}
	}
	return nil
}

// blocks cuts a node's columns into batches of blockRows rows. Each
// batch is a view of the columns, not a copy; the full slice expression
// caps it at its own rows so an append to one block's column can never
// write into the next block.
func blocks(def TableDef, cols []Int64Column, blockRows int) []Batch {
	rows := len(cols[ColKey])
	out := make([]Batch, 0, rows/blockRows+1)
	for start, end := 0, 0; start < rows; start = end {
		end = start + min(blockRows, rows-start)
		b := Batch{Rows: end - start, Width: def.Width, Cols: make([]Int64Column, len(cols))}
		for k, c := range cols {
			b.Cols[k] = c[start:end:end]
		}
		out = append(out, b)
	}
	return out
}
