package pstore

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// diskReads sums the bytes booked on every node's disk from now on.
func diskReads(c *cluster.Cluster) *float64 {
	read := new(float64)
	for _, nd := range c.Nodes {
		disk := nd.Disk
		disk.Observe(func(start, end sim.Time) { *read += (end - start) * disk.Rate() })
	}
	return read
}

// TestScanCursorCloseStopsDiskPump: closing a cold scan after a few
// blocks shuts the disk-pump pipeline down — the simulation drains
// without the pump reading the partition to the end, so a LIMIT-style
// consumer stops paying for I/O nobody uses.
func TestScanCursorCloseStopsDiskPump(t *testing.T) {
	c, err := cluster.New(cluster.Homogeneous(1, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	const batchRows = 1000
	def := storage.TableDef{Table: tpch.Part, Width: 20, RowsOverride: 1_000_000,
		Placement: storage.HashSegmented}
	parts, err := storage.PartitionTable(def, 1, batchRows)
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, Config{BatchRows: batchRows, WarmCache: false})
	read := diskReads(c)
	pulled := 0
	// Run must drain: a leaked pump blocked on a full queue would not end
	// the run with pending events.
	pullScan(t, c, func() *scanCursor { return e.scan(c.Nodes[0], parts[0], 1.0) }, func(storage.Batch) bool {
		pulled++
		return pulled < 3
	})
	if pulled != 3 {
		t.Errorf("scan yielded %d batches before it was closed, want 3", pulled)
	}
	// 3 delivered + prefetch depth (4) + one in-flight block of grace.
	if limit := float64(batchRows*20) * 9; *read > limit {
		t.Fatalf("disk pump kept reading after Close: %.0f bytes read, want <= %.0f", *read, limit)
	}
	if *read == 0 {
		t.Fatal("no disk reads at all — scan never ran")
	}
}

// TestScanCursorCloseWarm: the warm path terminates immediately too.
func TestScanCursorCloseWarm(t *testing.T) {
	c, err := cluster.New(cluster.Homogeneous(1, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	def := storage.TableDef{Table: tpch.Part, Width: 20, RowsOverride: 100_000,
		Placement: storage.HashSegmented}
	parts, err := storage.PartitionTable(def, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, Config{BatchRows: 1000, WarmCache: true})
	pulled := 0
	sc := pullScan(t, c, func() *scanCursor { return e.scan(c.Nodes[0], parts[0], 1.0) }, func(storage.Batch) bool {
		pulled++
		return false
	})
	if pulled != 1 {
		t.Errorf("scan yielded %d batches before it was closed, want 1", pulled)
	}
	sc.Close() // idempotent
	if _, done := sc.Pull(nil); !done {
		t.Error("closed warm scan yielded a batch")
	}
	if n := e.OpenCursors(); n != 0 {
		t.Errorf("%d cursors open after a double Close", n)
	}
}
