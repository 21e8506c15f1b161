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
	// scratch (mix + segment keys, 1 MiB) near its L2 cache while a
	// table of a million rows still splits into enough chunks to
	// balance.
	chunkRows = 1 << 16
	// maxNodes bounds the node count of a materialized table: a row's
	// destination is stored in a uint16.
	maxNodes = 1 << 16
	// maxRows bounds the row count of a materialized table: a row ID is
	// stored in a uint32.
	maxRows = 1 << 32
)

// chunk is the row range [lo, hi) of one unit of loader work.
type chunk struct{ lo, hi int64 }

// load routes every row of a table once and returns the row IDs each of
// n destination nodes holds: row i goes to node Hash64(segment key) % n,
// and a node's IDs are in row-index order. It generates no stored
// column; a partition's columns are generated from its IDs on read.
//
// It is a two-pass counting sort over fixed-size row chunks, each pass
// fanned out over GOMAXPROCS workers. Pass one generates every row's
// segment key, computes its destination and counts rows per (chunk,
// node). Exclusive prefix sums of those counts, taken in chunk order,
// give each chunk the offset at which its rows start in each node's
// IDs, and the totals size those lists exactly. Pass two reads each
// row's destination once and stores its ID at its final offset. Chunks
// write disjoint ranges, so the workers share nothing, and because the
// offsets depend only on the chunk order the result is the one a serial
// row-by-row append would build, whatever the worker count.
func load(sch schema, total int64, n int) [][]uint32 {
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
			keys := s.keys[:c.hi-c.lo]
			var mix []uint64
			if !sch.segment.Sequential() {
				mix = s.mix[:len(keys)]
				tpch.MixRows(c.lo, mix)
			}
			sch.segment.Fill(c.lo, mix, keys)
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

	// Each node's IDs are allocated once, at their exact size; the
	// allocations (and the zeroing they pay) run in parallel too.
	out, _ := par.Map(0, size, func(_ int, rows int) ([]uint32, error) {
		return make([]uint32, rows), nil
	})

	// Pass two.
	par.Map(0, chunks, func(ci int, c chunk) (struct{}, error) {
		if n == 1 {
			for i := c.lo; i < c.hi; i++ {
				out[0][i] = uint32(i)
			}
			return struct{}{}, nil
		}
		next := offsets[ci] // this chunk's last use of its offsets
		for j, nd := range dest[c.lo:c.hi] {
			out[nd][next[nd]] = uint32(c.lo) + uint32(j)
			next[nd]++
		}
		return struct{}{}, nil
	})
	return out
}

// scratch is a worker's buffers for one chunk of pass one: the row mixes
// and the segment keys. Pooled: allocating (faulting in, zeroing) fresh
// megabytes per chunk made BenchmarkPartitionTable about 15 % slower.
type scratch struct {
	mix  []uint64
	keys []int64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{mix: make([]uint64, chunkRows), keys: make([]int64, chunkRows)}
}}
