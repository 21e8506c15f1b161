package report

import "math"

// Histogram is a fixed-bucket latency histogram: 12 log-spaced buckets
// per decade from 1 µs to 1000 s (plus an underflow and an overflow
// bucket), so quantile estimates carry at most ~21% relative error at
// any magnitude while the whole histogram is a fixed-size value — no
// allocation per observation, safe to embed per tenant and cheap to
// snapshot under a lock. The zero Histogram is ready to use.
type Histogram struct {
	n      int64
	counts [histBucketCount]int64
}

const (
	// histPerDecade buckets per factor-of-10; histDecades decades
	// starting at histFloor seconds.
	histPerDecade   = 12
	histDecades     = 9
	histFloor       = 1e-6
	histBucketCount = histPerDecade*histDecades + 2 // + underflow + overflow
)

// histBucket maps a latency in seconds to its bucket index.
func histBucket(s float64) int {
	if !(s > histFloor) { // NaN and sub-floor observations land in bucket 0
		return 0
	}
	i := 1 + int(math.Floor(math.Log10(s/histFloor)*histPerDecade))
	if i >= histBucketCount {
		return histBucketCount - 1
	}
	return i
}

// histUpper is the upper bound (seconds) of bucket i, the value a
// quantile that lands in the bucket reports.
func histUpper(i int) float64 {
	if i <= 0 {
		return histFloor
	}
	return histFloor * math.Pow(10, float64(i)/histPerDecade)
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(s float64) {
	h.n++
	h.counts[histBucket(s)]++
}

// Quantile returns the latency at quantile q in [0,1] — the upper bound
// of the first bucket whose cumulative count reaches q of the
// observations (so the true value is at most one bucket width, ~21%,
// below the report). Zero observations report 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return histUpper(i)
		}
	}
	return histUpper(histBucketCount - 1)
}
