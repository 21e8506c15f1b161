package sim

import "testing"

func TestTryGetNonBlocking(t *testing.T) {
	q := NewQueue[int]("q", 0)
	v := -1
	if q.TryGet(&v) || v != -1 {
		t.Fatalf("TryGet on empty queue returned ok or wrote %v", v)
	}
	q.TryPut(7)
	if ok := q.TryGet(&v); !ok || v != 7 {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
}

func TestTryGetDrainsAfterClose(t *testing.T) {
	q := NewQueue[int]("q", 0)
	q.TryPut(1)
	q.TryPut(2)
	q.Close()
	var v int
	if ok := q.TryGet(&v); !ok || v != 1 {
		t.Fatal("buffered item lost after close")
	}
	if ok := q.TryGet(&v); !ok || v != 2 {
		t.Fatal("second buffered item lost")
	}
	if q.TryGet(&v) {
		t.Fatal("drained closed queue returned item")
	}
}

func TestTryPutRespectsCapacityAndClose(t *testing.T) {
	q := NewQueue[int]("q", 2)
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut under capacity failed")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut over capacity succeeded")
	}
	q2 := NewQueue[int]("q2", 0)
	q2.Close()
	if q2.TryPut(1) {
		t.Fatal("TryPut on closed queue succeeded")
	}
}

func TestTryGetWakesBlockedPutter(t *testing.T) {
	e := New()
	q := NewQueue[int]("q", 1)
	q.TryPut(1)
	unblocked := false
	e.Go("putter", func(p *Proc) {
		q.Put(p, 2) // blocks: queue full
		unblocked = true
	})
	e.Go("getter", func(p *Proc) {
		p.Hold(1)
		if v := 0; !q.TryGet(&v) || v != 1 {
			t.Errorf("TryGet = %v, want 1", v)
		}
	})
	e.Run()
	if !unblocked {
		t.Fatal("TryGet did not wake blocked putter")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	q := NewQueue[int]("q", 0)
	q.Close()
	q.Close() // must not panic
	if !q.Closed() {
		t.Fatal("not closed")
	}
}

func TestPutOnClosedQueuePanics(t *testing.T) {
	e := New()
	panicked := false
	q := NewQueue[int]("q", 0)
	q.Close()
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				// Re-panic suppressed: we only check detection; the
				// scheduler side will see a finished process because we
				// recovered inside the body.
			}
		}()
		q.Put(p, 1)
	})
	e.Run()
	if !panicked {
		t.Fatal("Put on closed queue did not panic")
	}
}

func TestQueueLen(t *testing.T) {
	q := NewQueue[string]("q", 0)
	if q.Len() != 0 {
		t.Fatal("new queue non-empty")
	}
	q.TryPut("a")
	q.TryPut("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}
