package delta

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// genericPart builds a one-node materialized generic table (keys 0..n-1)
// wrapped blocks of blockRows each.
func genericPart(t *testing.T, rows int64, blockRows int) *storage.Partition {
	t.Helper()
	def := storage.TableDef{
		Table: tpch.Part, Width: 8, RowsOverride: rows,
		Placement: storage.HashSegmented, Materialize: true,
	}
	parts, err := storage.PartitionTable(def, 1, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	return parts[0]
}

// driveStore runs fn as a simulation process with a fresh store over the
// partition, then drains the engine.
func driveStore(t *testing.T, part *storage.Partition, cfg Config, fn func(p *sim.Proc, s *Store)) *Store {
	t.Helper()
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1e9)
	s, err := NewStore(part, 0, cpu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("test", func(p *sim.Proc) { fn(p, s) })
	eng.Run()
	return s
}

// keysOf flattens a merged cursor into the visible key sequence.
func keysOf(t *testing.T, c storage.Cursor) []int64 {
	t.Helper()
	var out []int64
	for {
		b, ok := c.Next()
		if !ok {
			return out
		}
		if b.Phantom() {
			t.Errorf("materialized cursor yielded a phantom batch")
			return out
		}
		out = append(out, b.Cols[storage.ColKey]...)
	}
}

// A quiescent store over a materialized partition presents the
// partition's own blocks — the size PartitionTable cut them to, and its
// keys in order — whatever block size the merged view is opened with.
func TestMaterializedBaseKeepsPartitionBlocks(t *testing.T) {
	const rows, blockRows = 2_500, 512
	part := genericPart(t, rows, blockRows)
	s := driveStore(t, part, Config{}, func(*sim.Proc, *Store) {})
	c := s.MergedCursor(50_000)
	var sizes []int
	var keys []int64
	for b, ok := c.Next(); ok; b, ok = c.Next() {
		sizes = append(sizes, b.Rows)
		keys = append(keys, b.Cols[storage.ColKey]...)
	}
	if want := []int{512, 512, 512, 512, 452}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("merged view blocks %v, want %v", sizes, want)
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("merged view row %d holds key %d", i, k)
		}
	}
}

// TestOverlayShadowing: updates and deletes are visible through the
// merged view before any merge — updated keys move from their base
// position to the tail, deleted keys vanish, inserts append.
func TestOverlayShadowing(t *testing.T) {
	part := genericPart(t, 10, 4)
	driveStore(t, part, Config{}, func(p *sim.Proc, s *Store) {
		apply := func(op Op, keys ...int64) {
			if err := s.Apply(p, Write{Op: op, Rows: len(keys), Keys: keys}); err != nil {
				t.Errorf("apply %v: %v", op, err)
			}
		}
		apply(OpUpsert, 3)       // 3 shadowed in base, new version in tail
		apply(OpDelete, 7)       // 7 gone
		apply(OpInsert, 100, 42) // brand-new keys appended
		apply(OpDelete, 42)      // tail row killed before ever merging
		apply(OpUpsert, 42)      // ...and re-inserted (fresh tail version)

		want := []int64{0, 1, 2, 4, 5, 6, 8, 9 /* base minus 3,7 */, 3, 100, 42}
		got := keysOf(t, s.MergedCursor(4))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("merged view = %v, want %v", got, want)
		}
		// VisibleRows is an estimate: tombstones are keyed, and 42 (deleted
		// while tail-only) never had a base copy, so the estimate counts
		// one shadow too many: base 10 - tomb {3,7,42} + live tail
		// {3,100,42} = 10 vs. 11 actual.
		if v := s.VisibleRows(); v != 10 {
			t.Errorf("VisibleRows estimate = %d, want 10", v)
		}
	})
}

// TestMergeDeterminism: the merged view is byte-identical before and
// after a merge folds the overlay into the base, and the overlay resets.
func TestMergeDeterminism(t *testing.T) {
	part := genericPart(t, 100, 16)
	driveStore(t, part, Config{}, func(p *sim.Proc, s *Store) {
		for k := int64(0); k < 30; k += 3 {
			if err := s.Apply(p, Write{Op: OpUpsert, Rows: 1, Keys: []int64{k}}); err != nil {
				t.Errorf("upsert %d: %v", k, err)
			}
		}
		if err := s.Apply(p, Write{Op: OpDelete, Rows: 2, Keys: []int64{50, 51}}); err != nil {
			t.Errorf("delete: %v", err)
		}
		before := keysOf(t, s.MergedCursor(16))
		if !s.Merge(p) {
			t.Error("dirty store refused to merge")
			return
		}
		after := keysOf(t, s.MergedCursor(16))
		if !reflect.DeepEqual(before, after) {
			t.Errorf("merge changed the view:\n before=%v\n after=%v", before, after)
		}
		if s.TailBytes() != 0 || s.dirty {
			t.Errorf("overlay not reset after merge: tail=%v dirty=%v", s.TailBytes(), s.dirty)
		}
		if got := s.Stats().Merges; got != 1 {
			t.Errorf("merges = %d, want 1", got)
		}
		if int64(len(after)) != s.VisibleRows() || s.baseRows != int64(len(after)) {
			t.Errorf("row accounting off: view %d, visible %d, base %d", len(after), s.VisibleRows(), s.baseRows)
		}
	})
}

// TestPhantomAccounting: exact count arithmetic in the phantom regime,
// including the merged cursor matching a plain partition cursor when
// the overlay is empty.
func TestPhantomAccounting(t *testing.T) {
	def := storage.TableDef{
		Table: tpch.Part, Width: 20, RowsOverride: 1_000_000,
		Placement: storage.HashSegmented,
	}
	parts, err := storage.PartitionTable(def, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1e9)
	s, err := NewStore(parts[0], 0, cpu, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Quiescent: block sequence identical to the raw partition cursor.
	pc := parts[0].Cursor(777)
	mc := s.MergedCursor(777)
	for {
		a, aok := pc.Next()
		b, bok := mc.Next()
		if aok != bok || a.Rows != b.Rows || a.Width != b.Width || !a.Phantom() != !b.Phantom() {
			t.Fatalf("quiescent merged cursor diverges: %v/%v vs %v/%v", a, aok, b, bok)
		}
		if !aok {
			break
		}
	}

	eng.Go("test", func(p *sim.Proc) {
		check := func(want int64) {
			t.Helper()
			if got := s.VisibleRows(); got != want {
				t.Errorf("VisibleRows = %d, want %d", got, want)
			}
		}
		s.Apply(p, Write{Op: OpInsert, Rows: 500})
		check(1_000_500)
		s.Apply(p, Write{Op: OpUpsert, Rows: 200}) // shadows 200, appends 200
		check(1_000_500)
		s.Apply(p, Write{Op: OpDelete, Rows: 300})
		check(1_000_200)
		var total int64
		cur := s.MergedCursor(997)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			total += int64(b.Rows)
		}
		if total != 1_000_200 {
			t.Errorf("merged cursor yielded %d rows, want 1000200", total)
		}
		if !s.Merge(p) {
			t.Error("merge refused")
			return
		}
		check(1_000_200)
		if s.baseRows != 1_000_200 || s.tailRows != 0 || s.shadowed != 0 {
			t.Errorf("post-merge state: base=%d tail=%d shadowed=%d", s.baseRows, s.tailRows, s.shadowed)
		}
	})
	eng.Run()
}

// TestMergePolicy: NeedsMerge fires on tail size or age, not before.
func TestMergePolicy(t *testing.T) {
	def := storage.TableDef{Table: tpch.Part, Width: 20, RowsOverride: 1000, Placement: storage.HashSegmented}
	parts, err := storage.PartitionTable(def, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1e12)
	cfg := Config{MaxTailRows: 100, MaxTailAge: 5}
	s, err := NewStore(parts[0], 0, cpu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("test", func(p *sim.Proc) {
		if s.NeedsMerge(p.Now()) {
			t.Error("clean store wants a merge")
		}
		s.Apply(p, Write{Op: OpInsert, Rows: 50})
		if s.NeedsMerge(p.Now()) {
			t.Error("below both thresholds but wants a merge")
		}
		s.Apply(p, Write{Op: OpInsert, Rows: 60})
		if !s.NeedsMerge(p.Now()) {
			t.Error("110-row tail above the 100-row threshold not flagged")
		}
		s.Merge(p)
		s.Apply(p, Write{Op: OpDelete, Rows: 10})
		p.Hold(6) // age past MaxTailAge
		if !s.NeedsMerge(p.Now()) {
			t.Error("aged overlay not flagged")
		}
	})
	eng.Run()
}

// TestMergeAbort: Stop before (or during) a merge aborts the fold and
// leaves the store unchanged; the stopped merger exits.
func TestMergeAbort(t *testing.T) {
	part := genericPart(t, 20, 8)
	driveStore(t, part, Config{}, func(p *sim.Proc, s *Store) {
		s.Apply(p, Write{Op: OpUpsert, Rows: 1, Keys: []int64{5}})
		before := keysOf(t, s.MergedCursor(8))
		s.Stop()
		if s.Merge(p) {
			t.Error("stopped store merged")
		}
		if got := keysOf(t, s.MergedCursor(8)); !reflect.DeepEqual(got, before) {
			t.Errorf("aborted merge changed state: %v vs %v", got, before)
		}
		if s.Stats().Merges != 0 {
			t.Error("aborted merge counted")
		}
	})
}

// TestMergedCursorClose: a closed cursor yields nothing further.
func TestMergedCursorClose(t *testing.T) {
	part := genericPart(t, 50, 8)
	driveStore(t, part, Config{}, func(p *sim.Proc, s *Store) {
		cur := s.MergedCursor(8)
		if _, ok := cur.Next(); !ok {
			t.Error("first block missing")
		}
		cur.Close()
		if _, ok := cur.Next(); ok {
			t.Error("closed cursor yielded a block")
		}
	})

	// Phantom flavor.
	def := storage.TableDef{Table: tpch.Part, Width: 20, RowsOverride: 1000, Placement: storage.HashSegmented}
	parts, err := storage.PartitionTable(def, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(parts[0], 0, sim.NewServer(sim.New(), "cpu", 1e9), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cur := s.MergedCursor(100)
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Fatal("closed phantom cursor yielded a block")
	}
}

// TestNewStoreRejectsWiredSchemas: materialized TPC-H tables with
// multi-column schemas cannot back a delta store.
func TestNewStoreRejectsWiredSchemas(t *testing.T) {
	def := storage.TableDef{
		Table: tpch.Orders, SF: 0.001, Width: 20,
		Placement: storage.HashSegmented, Materialize: true,
	}
	parts, err := storage.PartitionTable(def, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(parts[0], 0, sim.NewServer(sim.New(), "cpu", 1e9), Config{}); err == nil {
		t.Fatal("materialized ORDERS accepted")
	}
}

// TestSetAccounting: Set routes by (table, node) and sums tail bytes per
// node.
func TestSetAccounting(t *testing.T) {
	def := storage.TableDef{Table: tpch.Part, Width: 10, RowsOverride: 1000, Placement: storage.HashSegmented}
	parts, err := storage.PartitionTable(def, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1e9)
	set := NewSet()
	var s0 *Store
	for i := 0; i < 2; i++ {
		s, serr := NewStore(parts[i], i, cpu, Config{})
		if serr != nil {
			t.Fatal(serr)
		}
		set.Attach(tpch.Part, i, s)
		if i == 0 {
			s0 = s
		}
	}
	if set.For(tpch.Part, 1) == nil || set.For(tpch.Lineitem, 0) != nil {
		t.Fatal("Set routing wrong")
	}
	eng.Go("test", func(p *sim.Proc) {
		if err := s0.Apply(p, Write{Op: OpInsert, Rows: 7}); err != nil {
			t.Errorf("apply: %v", err)
		}
	})
	eng.Run()
	if got := set.NodeTailBytes(0); got != 70 {
		t.Fatalf("NodeTailBytes(0) = %v, want 70", got)
	}
	if got := set.NodeTailBytes(1); got != 0 {
		t.Fatalf("NodeTailBytes(1) = %v, want 0", got)
	}
	var nil2 *Set
	if nil2.For(tpch.Part, 0) != nil || nil2.NodeTailBytes(0) != 0 {
		t.Fatal("nil Set not inert")
	}
}

// shadowedRows returns the base rows currently hidden by the overlay.
func (s *Store) shadowedRows() int64 {
	if s.baseBatches == nil {
		return s.shadowed
	}
	// Tombstones are keyed, not counted: with unique keys (the generic
	// generator's regime) each tombstone hides at most one base row, so
	// the tombstone count bounds the shadowed rows. Good enough for an
	// estimate; the cursor filters exactly.
	t := int64(s.tomb.Len())
	return min64(t, s.baseRows)
}

// VisibleRows returns the merged view's row count: base minus shadowed
// plus the live tail. For phantom stores this is exact; for
// materialized stores it is an estimate (the cursor's actual yield is
// exact).
func (s *Store) VisibleRows() int64 {
	return s.baseRows - s.shadowedRows() + s.liveTailRows()
}
