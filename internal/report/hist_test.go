package report

import (
	"math"
	"testing"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	if h.n != 0 {
		t.Fatalf("empty histogram count = %d", h.n)
	}
}

// TestHistogramQuantileBracketsTruth: for a known set of observations
// every reported quantile must sit within one bucket (a factor of
// 10^(1/12) ≈ 1.21) above the exact quantile — the documented error
// bound of the fixed log buckets.
func TestHistogramQuantileBracketsTruth(t *testing.T) {
	var h Histogram
	obs := make([]float64, 0, 1000)
	for i := 1; i <= 1000; i++ {
		v := 1e-5 * float64(i) // 10 µs .. 10 ms, uniformly
		obs = append(obs, v)
		h.Observe(v)
	}
	if h.n != 1000 {
		t.Fatalf("count = %d, want 1000", h.n)
	}
	width := math.Pow(10, 1.0/histPerDecade)
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		exact := obs[int(math.Ceil(q*1000))-1]
		got := h.Quantile(q)
		if got < exact || got > exact*width*1.0001 {
			t.Fatalf("q%v = %v, want within one bucket above exact %v", q, got, exact)
		}
	}
}

// TestHistogramExtremes: sub-floor, huge and NaN observations land in
// the boundary buckets instead of corrupting the counts.
func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-1)
	h.Observe(math.NaN())
	h.Observe(1e12)
	if h.n != 4 {
		t.Fatalf("count = %d, want 4", h.n)
	}
	if got := h.Quantile(0.5); got != histFloor {
		t.Fatalf("median of boundary observations = %v, want floor %v", got, histFloor)
	}
	if got := h.Quantile(1.0); got != histUpper(histBucketCount-1) {
		t.Fatalf("max quantile = %v, want overflow bound", got)
	}
}

// TestHistogramMonotone: quantiles never decrease in q.
func TestHistogramMonotone(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.001, 0.5, 0.002, 3.0, 0.0001, 0.9} {
		h.Observe(v)
	}
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile(prev) = %v", q, got, prev)
		}
		prev = got
	}
}
