// Package metrics holds the structured measurement types of the
// reproduction: normalized energy-vs-performance series (the paper's
// figure data) and paper-vs-measured comparison pairs. Rendering —
// text tables, ASCII scatter plots, CSV, Markdown — lives in
// internal/report, so these values can be cached, serialized and
// re-rendered independently.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/power"
)

// Series is one experiment's set of design points (already normalized).
type Series struct {
	Title  string
	XLabel string // normally "Normalized Performance"
	YLabel string // normally "Normalized Energy Consumption"
	Points []power.Point
}

// NewSeries normalizes raw (seconds, joules) measurements against the
// named reference label and returns a ready-to-render series.
func NewSeries(title string, points []power.Point, refLabel string) (Series, error) {
	var ref *power.Point
	for i := range points {
		if points[i].Label == refLabel {
			ref = &points[i]
			break
		}
	}
	if ref == nil {
		return Series{}, fmt.Errorf("metrics: reference %q not in series", refLabel)
	}
	return Series{
		Title:  title,
		XLabel: "Normalized Performance",
		YLabel: "Normalized Energy Consumption",
		Points: power.Normalize(points, *ref),
	}, nil
}

// Pair is one labelled (paper, measured) comparison row.
type Pair struct {
	Metric   string
	Paper    float64
	Measured float64
}

// RelErr returns the pair's symmetric relative error, the quantity the
// comparison tables and validation tests report.
func (p Pair) RelErr() float64 { return model.RelErr(p.Paper, p.Measured) }

// SortByPerf orders points by descending normalized performance (the
// paper's left-to-right plotting order).
func SortByPerf(pts []power.Point) {
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].NormPerf > pts[j].NormPerf })
}
