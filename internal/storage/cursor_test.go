package storage

import (
	"testing"
)

// A zero-row partition's cursor must report exhaustion immediately, in
// both the phantom and materialized representations.
func TestCursorEmptyPartition(t *testing.T) {
	phantom := &Partition{Def: liDef(1000, false), Rows: 0}
	c := phantom.Cursor(4096)
	if _, ok := c.Next(); ok {
		t.Fatal("phantom empty partition yielded a batch")
	}

	mat := &Partition{Def: liDef(0.01, true), Rows: 0}
	mc := mat.Cursor(4096)
	if _, ok := mc.Next(); ok {
		t.Fatal("materialized empty partition yielded a batch")
	}
}

// The final block of a partition whose row count is not a multiple of
// the block size must carry exactly the remainder, and the blocks must
// conserve the partition's rows.
func TestCursorFinalPartialBatch(t *testing.T) {
	p := &Partition{Def: liDef(1000, false), Rows: 10_500}
	c := p.Cursor(4096)
	var rows []int
	for {
		b, ok := c.Next()
		if !ok {
			break
		}
		rows = append(rows, b.Rows)
	}
	want := []int{4096, 4096, 2308}
	if len(rows) != len(want) {
		t.Fatalf("got %d blocks %v, want %v", len(rows), rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("block sizes %v, want %v", rows, want)
		}
	}
	// Exhaustion is final.
	if _, ok := c.Next(); ok {
		t.Fatal("cursor yielded past exhaustion")
	}
}

// batchChecksum folds a batch into (rows, key-column checksum); phantom
// batches contribute rows only.
func batchChecksum(b Batch, rows *int64, sum *uint64) {
	*rows += int64(b.Rows)
	if b.Phantom() {
		return
	}
	for _, k := range b.Cols[ColKey] {
		*sum += uint64(k)
	}
}

// Property: streaming a partition through its cursor yields exactly the
// rows and key checksums of the materialized Batches slice, for phantom
// and materialized representations, across block sizes that do and do
// not divide the partition, including block size 1 and oversized blocks.
func TestCursorMatchesBatches(t *testing.T) {
	phantomLi := liDef(400, false)
	phantomLi.RowsOverride = 100_003 // prime-ish: nothing divides evenly
	phantomOrd := ordDef(1000, false)
	phantomOrd.RowsOverride = 65_536
	defs := []TableDef{
		liDef(0.001, true), ordDef(0.001, true), // materialized
		phantomLi, phantomOrd, // phantom (bounded: blockRows=1 iterates every row)
	}
	for _, def := range defs {
		for _, nodes := range []int{1, 3} {
			parts, err := PartitionTable(def, nodes, 512)
			if err != nil {
				t.Fatal(err)
			}
			for _, blockRows := range []int{1, 7, 512, 1 << 20} {
				for nd, p := range parts {
					var wantRows, gotRows int64
					var wantSum, gotSum uint64
					for _, b := range p.Batches(blockRows) {
						batchChecksum(b, &wantRows, &wantSum)
					}
					c := p.Cursor(blockRows)
					for {
						b, ok := c.Next()
						if !ok {
							break
						}
						batchChecksum(b, &gotRows, &gotSum)
					}
					if gotRows != wantRows || gotSum != wantSum {
						t.Fatalf("%v node %d blockRows=%d: cursor (rows=%d sum=%d) != batches (rows=%d sum=%d)",
							def.Table, nd, blockRows, gotRows, gotSum, wantRows, wantSum)
					}
				}
			}
		}
	}
}

// Close makes a BatchCursor report exhaustion immediately — mid-stream,
// repeatedly, and for both representations.
func TestBatchCursorClose(t *testing.T) {
	phantom := &Partition{Def: liDef(1000, false), Rows: 10_000}
	c := phantom.Cursor(1024)
	if _, ok := c.Next(); !ok {
		t.Fatal("first phantom block missing")
	}
	c.Close()
	if _, ok := c.Next(); ok {
		t.Fatal("closed phantom cursor yielded a batch")
	}
	c.Close() // idempotent

	matParts, err := PartitionTable(liDef(0.001, true), 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	mc := matParts[0].Cursor(512)
	if _, ok := mc.Next(); !ok {
		t.Fatal("first materialized block missing")
	}
	mc.Close()
	if _, ok := mc.Next(); ok {
		t.Fatal("closed materialized cursor yielded a batch")
	}
}
