package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must not produce a number")
	}
	// 200 samples: p99 leaves two beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 198 {
		t.Errorf("percentile(1..200, 99) = %v, want 198", got)
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	v := []float64{9, 1, 5, 3}
	if got := median(v); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if v[0] != 9 || v[3] != 3 {
		t.Errorf("median reordered its input: %v", v)
	}
	if got := median([]float64{2, 8, 4}); got != 4 {
		t.Errorf("odd median = %v, want 4", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v, want 1.25, 3.75", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := newTracer()
	add := func(parent int, layer string, fromMS, toMS int) int {
		from, to := time.Duration(fromMS)*time.Millisecond, time.Duration(toMS)*time.Millisecond
		return tr.add(parent, layer, layer, 0, tr.t0.Add(from), tr.t0.Add(to), false)
	}
	root := add(0, "a", 0, 100)
	add(root, "b", 10, 40)
	add(root, "b", 30, 60)  // overlaps the first child: 10..60 is covered once
	add(root, "c", 90, 120) // clipped to the parent: 90..100
	self := tr.selfTimes()
	if got := self["a"]; got != 40*time.Millisecond {
		t.Errorf("self time of a = %v, want 40ms (100 - 50 - 10)", got)
	}
	if got := self["b"]; got != 60*time.Millisecond {
		t.Errorf("self time of b = %v, want 60ms (leaf spans keep all their time)", got)
	}
}
