package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndValues(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{0, 1, 3, 200} {
		out, err := Map(workers, in, func(i, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapFirstErrorByInputOrder(t *testing.T) {
	in := []int{0, 1, 2, 3}
	_, err := Map(4, in, func(i, v int) (int, error) {
		if v >= 2 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if err == nil || err.Error() != "item 2 failed" {
		t.Fatalf("want the input-order first error (item 2), got %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(8, nil, func(i, v int) (int, error) { return v, errors.New("never called") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

func TestMapRunsConcurrently(t *testing.T) {
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	_, err := Map(4, []int{0, 1, 2, 3}, func(i, v int) (int, error) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		if n == 4 {
			close(gate) // all four workers are in simultaneously
		}
		<-gate
		inFlight.Add(-1)
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 4 {
		t.Fatalf("peak concurrency %d, want 4", peak.Load())
	}
}

// TestMapOrderAndBound: with more items than workers, no more than
// workers calls are ever in flight.
func TestMapOrderAndBound(t *testing.T) {
	var inFlight, maxInFlight atomic.Int32
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	out, err := Map(4, items, func(_ int, v int) (int, error) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if m := maxInFlight.Load(); m > 4 {
		t.Fatalf("worker bound violated: %d in flight", m)
	}
}
