package pstore

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// pullScan drives a scan from a task, as Handle.exchange does: the task's
// first step opens the cursor, and every batch a Pull yields goes to got
// until got returns false or the scan is exhausted. Then the task closes
// the cursor and pulls once more, which must find it exhausted. pullScan
// runs the simulation and returns the cursor.
func pullScan(t *testing.T, c *cluster.Cluster, open func() *scanCursor, got func(storage.Batch) bool) *scanCursor {
	t.Helper()
	var sc *scanCursor
	c.Eng.GoTask("scan", func(tk *sim.Task) {
		if sc == nil {
			sc = open()
		}
		for {
			b, done := sc.Pull(tk)
			if !done && b.Rows == 0 {
				return // stepped again when the pull can go on
			}
			if done || !got(b) {
				break
			}
		}
		sc.Close()
		if b, done := sc.Pull(tk); !done {
			t.Errorf("a closed scan pulled %+v", b)
		}
	})
	c.Run()
	return sc
}

// Property: the streamed scan (scanCursor pulled by a simulation task,
// warm and cold paths) yields exactly the row counts and key
// checksums of a materialized reference scan over the same partition's
// block list, across selectivities and for both phantom and
// materialized representations.
func TestScanCursorMatchesMaterializedScan(t *testing.T) {
	const batchRows = 512
	for _, mat := range []bool{true, false} {
		def := storage.TableDef{Table: tpch.Lineitem, SF: testSF, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE", Materialize: mat}
		if !mat {
			def.RowsOverride = 50_007 // phantom: bound the row loop, indivisible by the block size
		}
		for _, sel := range []float64{0.01, 0.10, 0.50, 1.00} {
			for _, warm := range []bool{true, false} {
				c, err := cluster.New(cluster.Homogeneous(1, hw.BeefyL5630()))
				if err != nil {
					t.Fatal(err)
				}
				e := New(c, Config{BatchRows: batchRows, WarmCache: warm})
				parts, err := storage.PartitionTable(def, 1, batchRows)
				if err != nil {
					t.Fatal(err)
				}
				part := parts[0]

				var gotRows int64
				var gotSum uint64
				pullScan(t, c, func() *scanCursor { return e.scan(c.Nodes[0], part, sel) }, func(b storage.Batch) bool {
					if b.Rows == 0 {
						t.Error("scan cursor yielded an empty batch")
					}
					gotRows += int64(b.Rows)
					if !b.Phantom() {
						for _, k := range b.Cols[storage.ColKey] {
							gotSum += uint64(k)
						}
					}
					return true
				})

				// Materialized reference: the same predicate over the
				// partition's block list, with the same deterministic
				// fractional accounting for phantom blocks.
				thr := tpch.SelThreshold(sel)
				var wantRows int64
				var wantSum uint64
				var acc float64
				for _, b := range part.Batches(batchRows) {
					if b.Phantom() {
						acc += float64(b.Rows) * sel
						take := int(acc)
						acc -= float64(take)
						wantRows += int64(take)
						continue
					}
					keys := b.Cols[storage.ColKey]
					for i, v := range b.Cols[storage.ColSel] {
						if v < thr {
							wantRows++
							wantSum += uint64(keys[i])
						}
					}
				}
				if gotRows != wantRows || gotSum != wantSum {
					t.Fatalf("mat=%v sel=%v warm=%v: streamed (rows=%d sum=%d) != reference (rows=%d sum=%d)",
						mat, sel, warm, gotRows, gotSum, wantRows, wantSum)
				}
			}
		}
	}
}

// The scan passes on the join key alone, the one column the hash-table
// build and the probe read, holding exactly the qualifying rows of the
// stored block. A TPC-H table selects on its stored selection column; a
// generic single-key table stores and selects on its key.
func TestScanProjectsTheKey(t *testing.T) {
	const batchRows = 512
	const sel = 0.25
	for _, def := range []storage.TableDef{
		{Table: tpch.Lineitem, SF: testSF, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE", Materialize: true},
		{Table: tpch.Part, Width: 8, RowsOverride: 5000, Placement: storage.HashSegmented, Materialize: true},
	} {
		parts, err := storage.PartitionTable(def, 1, batchRows)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: the predicate over the stored blocks, the key gathered.
		thr := tpch.SelThreshold(sel)
		var want [][]int64
		for _, b := range parts[0].Batches(batchRows) {
			var keys []int64
			for i, v := range b.Cols[len(b.Cols)-1] {
				if v < thr {
					keys = append(keys, b.Cols[storage.ColKey][i])
				}
			}
			if len(keys) > 0 {
				want = append(want, keys)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: degenerate reference", def.Table)
		}
		c := newCluster(t, 1)
		e := New(c, Config{BatchRows: batchRows, WarmCache: true})
		var got []storage.Batch
		pullScan(t, c, func() *scanCursor { return e.scan(c.Nodes[0], parts[0], sel) }, func(b storage.Batch) bool {
			got = append(got, b)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d batches, want %d", def.Table, len(got), len(want))
		}
		for bi, b := range got {
			if len(b.Cols) != keyCols {
				t.Fatalf("%s: batch %d carries %d columns, want %d", def.Table, bi, len(b.Cols), keyCols)
			}
			if !slices.Equal(b.Cols[storage.ColKey], want[bi]) {
				t.Fatalf("%s: batch %d keys %v, want %v", def.Table, bi, b.Cols[storage.ColKey], want[bi])
			}
		}
	}
}

// The scan of a materialized partition decides its predicate as it walks
// the partition's bitmap and generates only the surviving keys; it must
// yield exactly the batches — rows, keys and order — that filtering the
// partition's generated blocks on their columns yields, at every
// selectivity from none to all, with a block size that does not divide
// the partition, over a dense bitmap (one node) and sparse ones (three).
func TestScanRowIDsMatchColumnScan(t *testing.T) {
	const batchRows = 1024
	for _, def := range []storage.TableDef{
		{Table: tpch.Lineitem, SF: testSF, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE", Materialize: true},
		{Table: tpch.Part, Width: 8, RowsOverride: 5003, Placement: storage.HashSegmented, Materialize: true},
	} {
		for _, n := range []int{1, 3} {
			parts, err := storage.PartitionTable(def, n, batchRows)
			if err != nil {
				t.Fatal(err)
			}
			for nd, part := range parts {
				if part.Rows%batchRows == 0 {
					t.Fatalf("%s: %d rows divide into blocks of %d", def.Table, part.Rows, batchRows)
				}
				for _, sel := range []float64{0, 1e-6, 0.05, 0.5, 1} {
					col := &scanCursor{sel: sel, thr: tpch.SelThreshold(sel)}
					var want []storage.Batch
					for _, b := range part.Batches(batchRows) {
						if out := col.filter(b); out.Rows > 0 {
							want = append(want, out)
						}
					}
					c := newCluster(t, 1)
					e := New(c, Config{BatchRows: batchRows})
					var got []storage.Batch
					pullScan(t, c, func() *scanCursor { return e.scan(c.Nodes[0], part, sel) }, func(b storage.Batch) bool {
						got = append(got, b)
						return true
					})
					if len(got) != len(want) {
						t.Fatalf("%s n %d node %d sel %v: %d batches, column scan %d", def.Table, n, nd, sel, len(got), len(want))
					}
					for i := range got {
						if got[i].Rows != want[i].Rows || got[i].Width != want[i].Width ||
							len(got[i].Cols) != keyCols || !slices.Equal(got[i].Cols[storage.ColKey], want[i].Cols[storage.ColKey]) {
							t.Fatalf("%s n %d node %d sel %v: batch %d is %+v, column scan %+v", def.Table, n, nd, sel, i, got[i], want[i])
						}
					}
					if sel == 1 && len(got) != int(part.Rows+batchRows-1)/batchRows {
						t.Fatalf("%s: every row qualifies, but %d of the blocks came through", def.Table, len(got))
					}
				}
			}
		}
	}
}
