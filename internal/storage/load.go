package storage

import (
	"math/bits"

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
	// than a function of the worker count: a table of a million rows
	// still splits into enough chunks to balance. It is a multiple of
	// 64, so a chunk owns whole words of every node's bitmap.
	chunkRows = 1 << 16
	// maxNodes bounds the node count of a materialized table: a row
	// costs each node one bit, so at this bound a row costs 4 bytes, as
	// much as its row ID.
	maxNodes = 32
	// maxRows bounds the row count of a materialized table: a row ID is
	// stored in a uint32.
	maxRows = 1 << 32
)

const _ uint = -(chunkRows % 64) // compiles only for whole words

// chunk is the row range [lo, hi) of one unit of loader work.
type chunk struct{ lo, hi int64 }

// load routes every row of a table once, row i to node
// Hash64(segment key) % n, and returns each node's rows as a bitmap
// over the table's rows — bit i%64 of sets[nd][i/64] is set when row i
// is on node nd — and its row count. It generates no stored column; a
// partition's columns are generated from its row IDs on read.
//
// It is one pass over fixed-size row chunks fanned out over GOMAXPROCS
// workers. A worker generates the segment keys of each 64-row group of
// its chunk, routes the group into one word per node and stores each
// node's word once; the word's popcount counts the node's rows. Chunks
// write disjoint words, so the workers share nothing, and the result is
// a function of the rows alone, whatever the worker count.
func load(sch schema, total int64, n int) (sets [][]uint64, rows []int64) {
	sets, rows = make([][]uint64, n), make([]int64, n)
	for nd := range sets {
		sets[nd] = make([]uint64, (total+63)/64)
	}
	chunks := make([]chunk, 0, (total+chunkRows-1)/chunkRows)
	for lo := int64(0); lo < total; lo += chunkRows {
		chunks = append(chunks, chunk{lo, min(lo+chunkRows, total)})
	}
	// A row goes to node Hash64(key) % n, the modulus taken by
	// multiplication; a drawn segment column of at most chunkRows values
	// (L_SHIPDATE has 2557) is routed by a value -> node table instead.
	m := tpch.NewModulus(uint64(n))
	route := func(k int64) uint8 { return uint8(m.Mod(tpch.Hash64(uint64(k)))) }
	var node []uint8
	if bound, ok := sch.segment.Bound(); ok && bound <= chunkRows {
		node = make([]uint8, bound)
		for v := range node {
			node[v] = route(int64(v))
		}
	}
	perChunk, _ := par.Map(0, chunks, func(_ int, c chunk) (counts [maxNodes]int64, _ error) {
		var mix [64]uint64
		var seg [64]int64
		for lo := c.lo; lo < c.hi; lo += 64 {
			keys := seg[:min(64, c.hi-lo)]
			if !sch.segment.Sequential() {
				tpch.MixRows(lo, mix[:len(keys)])
			}
			sch.segment.Fill(lo, mix[:], keys)
			var group [maxNodes]uint64 // the group's word of each node
			if node != nil {
				for j, k := range keys {
					group[node[k]] |= 1 << j
				}
			} else {
				for j, k := range keys {
					group[route(k)] |= 1 << j
				}
			}
			for nd, set := range sets {
				set[lo/64] = group[nd]
				counts[nd] += int64(bits.OnesCount64(group[nd]))
			}
		}
		return counts, nil
	})
	for _, counts := range perChunk {
		for nd := range rows {
			rows[nd] += counts[nd]
		}
	}
	return sets, rows
}
