package pstore

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Property: the streamed scan (scanCursor pulled inside a simulation
// process, warm and cold paths) yields exactly the row counts and key
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
				var hint int64
				c.Eng.Go("scan", func(p *sim.Proc) {
					sc := e.scan(p, c.Nodes[0], part, sel, keyCols)
					hint, _ = sc.RowHint()
					for {
						b, ok := sc.Next()
						if !ok {
							break
						}
						if b.Rows == 0 {
							t.Error("scan cursor yielded an empty batch")
						}
						gotRows += int64(b.Rows)
						if !b.Phantom() {
							for _, k := range b.Cols[storage.ColKey] {
								gotSum += uint64(k)
							}
						}
					}
				})
				c.Run()

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
				if want := int64(float64(part.Rows) * sel); hint != want {
					t.Fatalf("mat=%v sel=%v: RowHint = %d, want %d", mat, sel, hint, want)
				}
			}
		}
	}
}

// The scan passes on only the stored-column prefix its consumer reads:
// the key alone for the build side, the plain probe side and the
// aggregate; the key, the selection column and L_SUPPKEY under a
// dimension filter, whose output is the key alone again. Every
// projected column holds exactly the qualifying rows of the stored
// block, whether the table was loaded whole or only the prefix loadCols
// picks for the consumer.
func TestScanProjectsConsumerPrefix(t *testing.T) {
	const batchRows = 512
	def := storage.TableDef{Table: tpch.Lineitem, SF: testSF, Width: tpch.Q3ProjectedWidth,
		Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE", Materialize: true}
	parts, err := storage.PartitionTable(def, 1, batchRows)
	if err != nil {
		t.Fatal(err)
	}
	const sel = 0.25
	dims := []DimJoin{supplierDim(0.4, true)}
	for _, tc := range []struct {
		consumer string
		cols     int
		want     int
	}{
		{"build, aggregate", keyCols, 1},
		{"plain probe", probeCols(nil), 1},
		{"probe under a dimension filter", probeCols(dims), 3},
	} {
		// Reference: the predicate over the stored blocks, every column
		// gathered.
		thr := tpch.SelThreshold(sel)
		var want []storage.Batch
		for _, b := range parts[0].Batches(batchRows) {
			var idx []int
			for i, v := range b.Cols[storage.ColSel] {
				if v < thr {
					idx = append(idx, i)
				}
			}
			if len(idx) > 0 {
				want = append(want, storage.FilterBatch(b, idx))
			}
		}
		prefix, err := storage.PartitionColumns(def, 1, batchRows, loadCols(def, tc.cols))
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []*storage.Partition{parts[0], prefix[0]} {
			c := newCluster(t, 1)
			e := New(c, Config{BatchRows: batchRows, WarmCache: true})
			var got []storage.Batch
			c.Eng.Go("scan", func(p *sim.Proc) {
				sc := e.scan(p, c.Nodes[0], part, sel, tc.cols)
				for b, ok := sc.Next(); ok; b, ok = sc.Next() {
					got = append(got, b)
				}
			})
			c.Run()
			loaded := len(part.Batches(batchRows)[0].Cols)
			if len(got) != len(want) {
				t.Fatalf("%s, %d columns loaded: %d batches, want %d", tc.consumer, loaded, len(got), len(want))
			}
			for bi, b := range got {
				if len(b.Cols) != tc.want {
					t.Fatalf("%s, %d columns loaded: batch %d carries %d columns, want %d", tc.consumer, loaded, bi, len(b.Cols), tc.want)
				}
				for k, col := range b.Cols {
					for r, v := range col {
						if v != want[bi].Cols[k][r] {
							t.Fatalf("%s, %d columns loaded: batch %d column %d row %d = %d, want %d", tc.consumer, loaded, bi, k, r, v, want[bi].Cols[k][r])
						}
					}
				}
			}
		}
	}

	// The dimension filter reads L_SUPPKEY and emits the key alone.
	filters, _ := newDimFilters(dims, true)
	c := newCluster(t, 1)
	e := New(c, Config{BatchRows: batchRows, WarmCache: true})
	var rows int
	c.Eng.Go("probe", func(p *sim.Proc) {
		dc := &dimFilterCursor{in: e.scan(p, c.Nodes[0], parts[0], sel, probeCols(dims)), p: p, cpu: c.Nodes[0].CPU, filters: filters}
		for b, ok := dc.Next(); ok; b, ok = dc.Next() {
			if len(b.Cols) != 1 {
				t.Errorf("dimension filter emitted %d columns, want 1", len(b.Cols))
			}
			rows += b.Rows
		}
	})
	c.Run()
	if rows == 0 {
		t.Fatal("dimension filter emitted no rows")
	}
}

// A join or aggregate loads the stored columns its scan reads: the key
// and the selection column for a plain Q3 side, L_SUPPKEY behind them
// for a LINEITEM probe under a dimension semijoin, and the key alone for
// a generic single-key table, which selects on it.
func TestLoadColsCoversTheScan(t *testing.T) {
	orders, lineitem := smallDefs(true)
	generic := storage.TableDef{Table: tpch.Part, Width: 8, Placement: storage.HashSegmented, Materialize: true}
	dims := []DimJoin{supplierDim(0.4, true)}
	for _, tc := range []struct {
		name string
		def  storage.TableDef
		cols int
		want int
	}{
		{"Q3 build", orders, keyCols, 2},
		{"Q3 probe", lineitem, probeCols(nil), 2},
		{"aggregate", lineitem, keyCols, 2},
		{"dimension probe", lineitem, probeCols(dims), 3},
		{"generic", generic, keyCols, 1},
	} {
		if got := loadCols(tc.def, tc.cols); got != tc.want {
			t.Errorf("%s: loadCols = %d, want %d", tc.name, got, tc.want)
		}
	}
}
