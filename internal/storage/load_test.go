package storage

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tpch"
)

// oracleRow returns row i's stored columns and segmentation key from the
// row-at-a-time tpch generators: the loader's specification, sharing no
// code with it.
func oracleRow(def TableDef, i int64) (stored []int64, seg int64) {
	switch def.Table {
	case tpch.Lineitem:
		r := tpch.GenLineitem(def.SF, i)
		seg = r.OrderKey
		if def.SegmentColumn == "L_SHIPDATE" {
			seg = r.ShipDate
		}
		return []int64{r.OrderKey, r.SelCol}, seg
	case tpch.Orders:
		r := tpch.GenOrder(def.SF, i)
		seg = r.CustKey
		if def.SegmentColumn == "O_ORDERKEY" {
			seg = r.OrderKey
		}
		return []int64{r.OrderKey, r.SelCol}, seg
	case tpch.Customer:
		r := tpch.GenCustomer(def.SF, i)
		return []int64{r.CustKey, r.SelCol}, r.CustKey
	case tpch.Supplier:
		r := tpch.GenSupplier(def.SF, i)
		return []int64{r.SuppKey, r.SelCol}, r.SuppKey
	default:
		return []int64{i}, i
	}
}

// oraclePartition routes the table row by row and appends each row to
// its node: want[node][column] is that node's column, in arrival order.
func oraclePartition(def TableDef, n int) [][][]int64 {
	want := make([][][]int64, n)
	for i := int64(0); i < def.TotalRows(); i++ {
		stored, seg := oracleRow(def, i)
		nd := int(tpch.Hash64(uint64(seg)) % uint64(n))
		if want[nd] == nil {
			want[nd] = make([][]int64, len(stored))
		}
		for k, v := range stored {
			want[nd][k] = append(want[nd][k], v)
		}
	}
	return want
}

// checkPartitions asserts parts hold exactly want, cut into blocks of
// blockRows, reading them back through the generating Batches: same
// block count, same Rows per block, same value in every cell, every
// column exactly a block long.
func checkPartitions(t *testing.T, parts []*Partition, want [][][]int64, blockRows int) {
	t.Helper()
	if len(parts) != len(want) {
		t.Fatalf("%d partitions, want %d", len(parts), len(want))
	}
	for nd, p := range parts {
		rows := 0
		if want[nd] != nil {
			rows = len(want[nd][0])
		}
		if p.Rows != int64(rows) {
			t.Fatalf("partition %d: %d rows, want %d rows", nd, p.Rows, rows)
		}
		if p.set == nil {
			t.Fatalf("node %d: materialized partition turned phantom", nd)
		}
		batches := p.Batches(blockRows)
		if got, wantBlocks := len(batches), (rows+blockRows-1)/blockRows; got != wantBlocks {
			t.Fatalf("node %d: %d blocks, want %d", nd, got, wantBlocks)
		}
		at := 0
		for bi, b := range batches {
			if wantRows := min(blockRows, rows-at); b.Rows != wantRows || b.Width != p.Def.Width {
				t.Fatalf("node %d block %d: %d rows of width %d, want %d of %d", nd, bi, b.Rows, b.Width, wantRows, p.Def.Width)
			}
			if len(b.Cols) != len(want[nd]) {
				t.Fatalf("node %d block %d: %d columns, want %d", nd, bi, len(b.Cols), len(want[nd]))
			}
			for k, col := range b.Cols {
				if len(col) != b.Rows || cap(col) != b.Rows {
					t.Fatalf("node %d block %d col %d: len %d cap %d, want both %d", nd, bi, k, len(col), cap(col), b.Rows)
				}
				for r, v := range col {
					if v != want[nd][k][at+r] {
						t.Fatalf("node %d block %d col %d row %d: %d, want %d", nd, bi, k, r, v, want[nd][k][at+r])
					}
				}
			}
			at += b.Rows
		}
	}
}

// oracleDefs is one definition per loader route and table, each of
// oracleRows rows: three loader chunks, the last one partial. A key
// names the route before the slash, which TestOracleDefsCoverBothRoutes
// checks:
//
//   - "seq4" and "seq1": a sequential segmentation key, one value per 4
//     rows (L_ORDERKEY) or per row (O_ORDERKEY, C_CUSTKEY, S_SUPPKEY),
//     routed by hash and modulus;
//   - "table": a drawn segmentation column of at most chunkRows values,
//     routed through a value -> node table: L_SHIPDATE, and O_CUSTKEY at
//     SF 0.01 (1 500 customers);
//   - "modulus": a drawn column too large for that table, routed by hash
//     and modulus: O_CUSTKEY at SF 0.5 (75 000 customers);
//   - "rowindex": the generic single-column table, keyed and segmented
//     on the row index (PART).
const oracleRows = 2*chunkRows + 4099

func oracleDefs() map[string]TableDef {
	def := func(table tpch.Table, sf tpch.ScaleFactor, segment string) TableDef {
		return TableDef{Table: table, SF: sf, Width: tpch.Q3ProjectedWidth, Materialize: true,
			SegmentColumn: segment, RowsOverride: oracleRows}
	}
	return map[string]TableDef{
		"seq4/l_orderkey":   def(tpch.Lineitem, 0.01, "L_ORDERKEY"),
		"seq1/o_orderkey":   def(tpch.Orders, 0.01, "O_ORDERKEY"),
		"seq1/c_custkey":    def(tpch.Customer, 0.01, ""),
		"seq1/s_suppkey":    def(tpch.Supplier, 0.01, ""),
		"table/l_shipdate":  def(tpch.Lineitem, 0.01, "L_SHIPDATE"),
		"table/o_custkey":   def(tpch.Orders, 0.01, "O_CUSTKEY"),
		"modulus/o_custkey": def(tpch.Orders, 0.5, "O_CUSTKEY"),
		"rowindex/part":     def(tpch.Part, 0.01, ""),
	}
}

// The loader must build exactly what a serial row-at-a-time route-and-
// append builds — same blocks, same rows in the same order — for every
// schema, node count and block size, and at every worker count. The node
// counts include 1, which routes nothing, powers of two, the odd moduli
// 3, 5, 7 and 9 and the even non-powers 6 and 12. The worker counts
// include 3, which splits the three chunks one each. The block sizes are
// a power of two, 1000 (which divides neither a chunk nor the table) and
// one block for the whole table. Blocks are cut from a node's finished
// columns, so the two small block sizes, which cost the check an
// allocation per cell, run at one node count and one worker count. The
// edge row counts run at one worker count and two block sizes, one of
// 100 rows, so that blocks end mid-word even on one node: none, one and
// two rows, which leave most nodes empty; a table that ends one row
// before, exactly on or one row past a bitmap word, and one that does
// so at a chunk boundary. They run at node counts up to maxNodes, 32.
func TestLoaderMatchesRowAtATimeOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type run struct{ blockRows, procs int }
	runs := []run{{4096, 1}, {4096, 2}, {4096, 3}, {4096, 4}, {1000, 4}, {oracleRows + 1, 4}}
	smallBlocks := []run{{1, 4}, {7, 4}}
	edgeRows := []int64{0, 1, 2, 63, 64, 65, chunkRows - 1, chunkRows, chunkRows + 1}
	check := func(name string, def TableDef, n int, r run, want [][][]int64) {
		runtime.GOMAXPROCS(r.procs)
		parts, err := PartitionTable(def, n, r.blockRows)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			checkPartitions(t, parts, want, r.blockRows)
		})
	}
	for name, def := range oracleDefs() {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
			want := oraclePartition(def, n)
			todo := runs
			if n == 3 {
				todo = append(smallBlocks, runs...)
			}
			for _, r := range todo {
				check(fmt.Sprintf("%s/%v/n%d/block%d/procs%d", name, def.Placement, n, r.blockRows, r.procs), def, n, r, want)
			}
		}
		for _, rows := range edgeRows {
			edge := def
			edge.RowsOverride = rows
			if rows == 0 {
				edge.SF = 0 // RowsOverride 0 means the scale factor's rows: none
			}
			for _, n := range []int{1, 3, 7, 16, 31, maxNodes} {
				want := oraclePartition(edge, n)
				for _, r := range []run{{4096, 4}, {100, 4}} {
					check(fmt.Sprintf("%s/%v/rows%d/n%d/block%d/procs%d", name, def.Placement, rows, n, r.blockRows, r.procs), edge, n, r, want)
				}
			}
		}
	}
}

// Hash segmentation must place every row on the node the exchange router
// and Prepartitioned joins expect: Hash64 of the segmentation column,
// modulo n. The column is read from the stored key: it is
// the key itself, or — O_CUSTKEY, which is not stored — recomputed from
// O_ORDERKEY = row index + 1. SUPPLIER used to be routed on the row
// index while storing S_SUPPKEY = index+1.
func TestPlacementFollowsStoredSegmentColumn(t *testing.T) {
	defs := oracleDefs()
	custKey := func(sf tpch.ScaleFactor) func(int64) int64 {
		return func(key int64) int64 { return tpch.GenOrder(sf, key-1).CustKey }
	}
	for _, tc := range []struct {
		def     string
		segment func(key int64) int64 // nil: the key itself
	}{
		{"seq4/l_orderkey", nil},
		{"seq1/o_orderkey", nil},
		{"seq1/c_custkey", nil},
		{"seq1/s_suppkey", nil},
		{"table/o_custkey", custKey(defs["table/o_custkey"].SF)},
		{"modulus/o_custkey", custKey(defs["modulus/o_custkey"].SF)},
		{"rowindex/part", nil},
	} {
		for _, n := range []int{3, 4} {
			def := defs[tc.def]
			def.Placement, def.RowsOverride = HashSegmented, 20_000
			parts, err := PartitionTable(def, n, 512)
			if err != nil {
				t.Fatal(err)
			}
			for nd, p := range parts {
				for _, b := range p.Batches(512) {
					for _, v := range b.Cols[ColKey] {
						if tc.segment != nil {
							v = tc.segment(v)
						}
						if d := int(tpch.Hash64(uint64(v)) % uint64(n)); d != nd {
							t.Fatalf("%s n %d: value %d on node %d hashes to node %d", tc.def, n, v, nd, d)
						}
					}
				}
			}
		}
	}
}

// A node that receives no rows still holds a materialized partition: an
// empty block list, not the nil that would make Batches and Cursor
// synthesize phantom blocks.
func TestZeroRowPartitionStaysMaterialized(t *testing.T) {
	two := TableDef{Table: tpch.Part, Width: 8, Placement: HashSegmented, Materialize: true, RowsOverride: 2}
	none := TableDef{Table: tpch.Part, Width: 8, Placement: HashSegmented, Materialize: true} // SF 0: no rows at all
	for _, def := range []TableDef{two, none} {
		parts, err := PartitionTable(def, 8, 4096)
		if err != nil {
			t.Fatal(err)
		}
		checkPartitions(t, parts, oraclePartition(def, 8), 4096)
		empty := 0
		for nd, p := range parts {
			if p.Rows > 0 {
				continue
			}
			empty++
			if b := p.Batches(4096); b == nil || len(b) != 0 {
				t.Fatalf("node %d: empty partition has blocks %v", nd, b)
			}
			cur := p.Cursor(4096)
			if b, ok := cur.Next(); ok {
				t.Fatalf("node %d: empty partition's cursor yielded %+v", nd, b)
			}
			cur.Close()
		}
		if empty < 6 {
			t.Fatalf("%d rows over 8 nodes left only %d nodes empty", def.TotalRows(), empty)
		}
	}
}

// oracleDefs must keep every loader route under test, each under a
// name that says it: both routes of a drawn segmentation column (small
// enough for the value -> node table, and too large for it), a
// sequential key of 4 rows per value and of 1, and the one-column row
// index.
func TestOracleDefsCoverBothRoutes(t *testing.T) {
	seen := map[string]bool{}
	for name, def := range oracleDefs() {
		sch := tableSchema(def)
		var route string
		if bound, ok := sch.segment.Bound(); ok {
			route = "modulus"
			if bound <= chunkRows {
				route = "table"
			}
		} else if len(sch.cols) == 1 {
			route = "rowindex"
		} else {
			keys := make([]int64, 8) // rows per value: 8 over the values of rows 0-7
			sch.segment.Fill(0, nil, keys)
			route = fmt.Sprintf("seq%d", len(keys)/int(keys[len(keys)-1]-keys[0]+1))
		}
		if want, _, _ := strings.Cut(name, "/"); route != want {
			t.Errorf("oracleDefs[%q] takes route %q", name, route)
		}
		seen[route] = true
	}
	for _, route := range []string{"seq4", "seq1", "table", "modulus", "rowindex"} {
		if !seen[route] {
			t.Errorf("no oracle definition takes route %q", route)
		}
	}
}

func TestPartitionTableRejectsBadArguments(t *testing.T) {
	tiny := TableDef{Table: tpch.Part, Width: 8, Placement: HashSegmented, Materialize: true, RowsOverride: 2}
	phantom := tiny
	phantom.Materialize = false
	for _, def := range []TableDef{tiny, phantom} {
		for _, blockRows := range []int{0, -1} {
			if _, err := PartitionTable(def, 2, blockRows); err == nil {
				t.Errorf("materialize=%v: no error for blockRows %d", def.Materialize, blockRows)
			}
		}
	}
	// A row costs a bit per node: more nodes than maxNodes must be
	// refused, naming the limit, not loaded at more bytes per row than a
	// row ID.
	if _, err := PartitionTable(tiny, maxNodes+1, 64); err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxNodes)) {
		t.Errorf("%d nodes: err %v, want one naming the limit %d", maxNodes+1, err, maxNodes)
	}
	if _, err := PartitionTable(phantom, maxNodes+1, 64); err != nil {
		t.Errorf("phantom table over %d nodes: %v", maxNodes+1, err)
	}
	if parts, err := PartitionTable(tiny, maxNodes, 64); err != nil || len(parts) != maxNodes {
		t.Errorf("%d nodes: %d partitions, err %v", maxNodes, len(parts), err)
	}
	// A row ID is stored in 32 bits: a larger table must be refused before
	// anything is allocated, naming the limit.
	huge := tiny
	huge.RowsOverride = maxRows + 1
	if _, err := PartitionTable(huge, 2, 64); err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxRows)) {
		t.Errorf("%d rows: err %v, want one naming the limit %d", huge.RowsOverride, err, int64(maxRows))
	}
}

// FuzzPartitionTable loads a random table — schema, segmentation column,
// scale factor, row count up to three chunks, node count up to maxNodes
// and block size — and compares it with the row-at-a-time oracle.
func FuzzPartitionTable(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, uint32(oracleRows), uint8(4), uint16(4096))
	f.Add(uint8(1), uint8(0), true, uint32(chunkRows), uint8(3), uint16(100))
	f.Add(uint8(0), uint8(0), false, uint32(1000), uint8(2), uint16(7))
	f.Add(uint8(4), uint8(0), false, uint32(0), uint8(5), uint16(1))
	f.Fuzz(func(t *testing.T, table, segment uint8, bigSF bool, rows uint32, n uint8, blockRows uint16) {
		tables := []tpch.Table{tpch.Lineitem, tpch.Orders, tpch.Customer, tpch.Supplier, tpch.Part}
		segments := []string{"", "L_SHIPDATE", "O_ORDERKEY"} // "": the table default
		def := TableDef{Table: tables[int(table)%len(tables)], SF: 0.01, Width: tpch.Q3ProjectedWidth,
			Materialize: true, SegmentColumn: segments[int(segment)%len(segments)],
			RowsOverride: int64(rows % (3 * chunkRows))}
		if def.RowsOverride == 0 {
			def.SF = 0 // RowsOverride 0 means the scale factor's rows: none
		}
		if bigSF && def.RowsOverride > 0 {
			def.SF = 0.5
		}
		nodes, blk := int(n%maxNodes)+1, int(blockRows)%8192+1
		parts, err := PartitionTable(def, nodes, blk)
		if err != nil {
			t.Fatal(err)
		}
		checkPartitions(t, parts, oraclePartition(def, nodes), blk)
	})
}

// The loader keeps a bit per row per node and nothing else per row:
// LINEITEM at SF 0.2 is 1.2 M rows, whose bitmaps on 4 nodes take
// 600 KB. A per-row destination array or list of row IDs would add
// megabytes.
func TestPartitionTableAllocatesUnderOneMB(t *testing.T) {
	def := liDef(0.2, true)
	def.SegmentColumn = "L_SHIPDATE"
	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := PartitionTable(def, 4, 4096); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 1_000_000 {
		t.Fatalf("PartitionTable of %d rows on 4 nodes allocates %d bytes per call, want at most 1 MB", def.TotalRows(), per)
	}
}
