package power

// This file implements the Energy-Delay-Product arithmetic that underlies
// every figure in the paper.
//
// Conventions (Section 1.1):
//   - "performance" is the inverse of query response time;
//   - "energy" is the joules consumed by the whole cluster for the query;
//   - both are reported normalized to a reference configuration
//     (the largest / all-Beefy cluster);
//   - EDP = energy × delay (joule-seconds). On a normalized
//     energy-vs-performance plot, the constant-EDP reference line through
//     the reference point (1,1) is energy = performance: trading x% of
//     performance for exactly x% of energy keeps EDP constant.

// Point is one cluster design / configuration evaluated on a workload.
type Point struct {
	Label     string
	Seconds   float64 // query response time (delay)
	Joules    float64 // cluster energy for the query
	NormPerf  float64 // reference.Seconds / Seconds
	NormEnerg float64 // Joules / reference.Joules
}

// NormEDP returns the normalized EDP: NormEnerg / NormPerf.
// Values < 1 mean the design lies below the constant-EDP reference line
// (proportionally more energy saved than performance lost) — the paper's
// definition of a favourable trade.
func (p Point) NormEDP() float64 {
	if p.NormPerf == 0 {
		return 0
	}
	return p.NormEnerg / p.NormPerf
}

// BelowEDPLine reports whether the point trades performance for energy
// more favourably than 1:1 relative to the reference, with tolerance tol
// (e.g. 0.01 for 1%).
func (p Point) BelowEDPLine(tol float64) bool {
	return p.NormEDP() < 1-tol
}

// Normalize computes normalized performance and energy for every point
// against the given reference point, returning a new slice in the same
// order. The reference gets (1, 1) exactly.
func Normalize(points []Point, ref Point) []Point {
	out := make([]Point, len(points))
	for i, p := range points {
		p.NormPerf = 0
		p.NormEnerg = 0
		if p.Seconds > 0 {
			p.NormPerf = ref.Seconds / p.Seconds
		}
		if ref.Joules > 0 {
			p.NormEnerg = p.Joules / ref.Joules
		}
		out[i] = p
	}
	return out
}
