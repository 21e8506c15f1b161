package storage

import (
	"testing"
)

// benchParts is the storage layer's benchmark table: materialised
// LINEITEM at SF 0.2 (1.2 M rows) segmented on L_SHIPDATE over 4 nodes
// in 4096-row blocks — join_mat_sf2's probe side at a tenth of its size.
func benchParts(b *testing.B) (TableDef, []*Partition) {
	def := liDef(0.2, true)
	def.SegmentColumn = "L_SHIPDATE"
	parts, err := PartitionTable(def, 4, 4096)
	if err != nil {
		b.Fatal(err)
	}
	return def, parts
}

// BenchmarkPartitionTable is the materialising loader: route every row
// of the table and set its bit in its node's bitmap.
func BenchmarkPartitionTable(b *testing.B) {
	b.ReportAllocs()
	var def TableDef
	for i := 0; i < b.N; i++ {
		def, _ = benchParts(b)
	}
	b.ReportMetric(float64(def.TotalRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkCursorDrain pulls every block of every partition through its
// cursor: the leaf of each operator pipeline. A materialised cursor
// extracts each block's row IDs from its partition's bitmap and
// generates the block's columns from them as it is pulled (benchmark's
// storage.cursor_rows_per_s).
func BenchmarkCursorDrain(b *testing.B) {
	def, parts := benchParts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows int64
		for _, p := range parts {
			cur := p.Cursor(4096)
			for {
				blk, ok := cur.Next()
				if !ok {
					break
				}
				rows += int64(blk.Rows)
			}
			cur.Close()
		}
		if rows != def.TotalRows() {
			b.Fatalf("drained %d of %d rows", rows, def.TotalRows())
		}
	}
	b.ReportMetric(float64(def.TotalRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkFilterBatch keeps every second row of every block: the
// gather a selective scan pays per surviving row.
func BenchmarkFilterBatch(b *testing.B) {
	def, parts := benchParts(b)
	var blocks []Batch
	for _, p := range parts {
		blocks = append(blocks, p.Batches(4096)...)
	}
	idx := make([]int, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept := 0
		for _, blk := range blocks {
			idx = idx[:0]
			for r := 0; r < blk.Rows; r += 2 {
				idx = append(idx, r)
			}
			kept += FilterBatch(blk, idx).Rows
		}
		if kept == 0 {
			b.Fatal("filter kept nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(def.TotalRows())*float64(b.N)), "ns/row")
}
