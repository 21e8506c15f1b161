package pstore

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/delta"
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

// TestReserveFailsAdmissionBeforeBuild: with CheckMemory on, a build
// whose hint-presized Int64Table reservation exceeds node memory is
// rejected by LaunchJoin — before a single process runs — rather than
// after the build has already executed.
func TestReserveFailsAdmissionBeforeBuild(t *testing.T) {
	build, probe := smallDefs(false)
	build.SF, probe.SF = 400, 400 // 600M build rows at 100%: far beyond 7 GB
	c, err := cluster.New(cluster.Homogeneous(1, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, Config{BatchRows: 500_000, WarmCache: true, CheckMemory: true})
	_, err = e.LaunchJoin("q", JoinSpec{Build: build, Probe: probe,
		BuildSel: 1.0, ProbeSel: 0.01, Method: DualShuffle})
	if err == nil {
		t.Fatal("over-reserved hash table admitted")
	}
	if !strings.Contains(err.Error(), "admission") {
		t.Fatalf("want an admission error, got: %v", err)
	}
}

// TestAdmissionCountsDeltaTail: a build that fits on its own is rejected
// when the node's unmerged delta tail has already claimed the headroom.
func TestAdmissionCountsDeltaTail(t *testing.T) {
	build, probe := smallDefs(false)
	build.SF, probe.SF = 50, 50 // reservation ~2.1 GB of the 7 GB node
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 1.0, ProbeSel: 0.01, Method: DualShuffle}

	run := func(tailRows int) error {
		c, err := cluster.New(cluster.Homogeneous(1, hw.LaptopB()))
		if err != nil {
			t.Fatal(err)
		}
		e := New(c, Config{BatchRows: 500_000, WarmCache: true, CheckMemory: true})
		def := storage.TableDef{Table: tpch.Part, Width: 20, RowsOverride: 1000,
			Placement: storage.HashSegmented}
		parts, err := storage.PartitionTable(def, 1, 1000)
		if err != nil {
			t.Fatal(err)
		}
		st, err := delta.NewStore(parts[0], 0, c.Nodes[0].CPU, delta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		set := delta.NewSet()
		set.Attach(tpch.Part, 0, st)
		e.AttachDeltas(set)
		if tailRows > 0 {
			c.Eng.Go("load", func(p *sim.Proc) {
				if aerr := st.Apply(p, delta.Write{Op: delta.OpInsert, Rows: tailRows}); aerr != nil {
					t.Errorf("apply: %v", aerr)
				}
			})
			c.Eng.Run()
		}
		_, err = e.LaunchJoin("q", spec)
		return err
	}

	if err := run(0); err != nil {
		t.Fatalf("join rejected without a delta tail: %v", err)
	}
	// 300M rows x 20 B = 6 GB of unmerged tail: 2.1 + 6 > 7 GB.
	if err := run(300_000_000); err == nil {
		t.Fatal("join admitted despite the delta tail claiming memory")
	} else if !strings.Contains(err.Error(), "delta tail") {
		t.Fatalf("want a delta-tail admission error, got: %v", err)
	}
}
