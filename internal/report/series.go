package report

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
	"repro/internal/power"
)

// edpPos classifies a point against the constant-EDP reference line with
// the 1% tolerance every emitter shares.
func edpPos(p power.Point) string {
	switch {
	case p.BelowEDPLine(0.01):
		return "below"
	case p.NormEDP() > 1.01:
		return "above"
	default:
		return "on"
	}
}

// SeriesTable renders the series as an aligned text table, one row per
// point, including each point's normalized EDP and its position relative
// to the constant-EDP reference line.
func SeriesTable(s metrics.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-14s %12s %12s %10s %10s %8s\n",
		"design", "time(s)", "energy(J)", "norm perf", "norm enrg", "EDP")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-14s %12.2f %12.0f %10.3f %10.3f %8s\n",
			p.Label, p.Seconds, p.Joules, p.NormPerf, p.NormEnerg, edpPos(p))
	}
	return b.String()
}

// SeriesPlot renders an ASCII scatter of normalized energy (y) vs
// normalized performance (x), with the constant-EDP line drawn as dots.
// The x axis is reversed (1.0 on the left), matching the paper's figures.
func SeriesPlot(s metrics.Series, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	xmax, ymax := 1.0, 1.0
	for _, p := range s.Points {
		xmax = math.Max(xmax, p.NormPerf)
		ymax = math.Max(ymax, p.NormEnerg)
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	// x: leftmost column = xmax, rightmost = 0 (reversed axis).
	toCol := func(x float64) int {
		c := int((1 - x/xmax) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	toRow := func(y float64) int {
		r := int((1 - y/ymax) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	// EDP reference line: energy = perf.
	for c := 0; c < width; c++ {
		x := xmax * (1 - float64(c)/float64(width-1))
		grid[toRow(x)][c] = '.'
	}
	for _, p := range s.Points {
		grid[toRow(p.NormEnerg)][toCol(p.NormPerf)] = 'o'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%s ^ ('o' designs, '.' constant-EDP line)\n", s.YLabel)
	for _, row := range grid {
		fmt.Fprintf(&b, "  |%s\n", string(row))
	}
	fmt.Fprintf(&b, "  +%s> %s (%.2f at left, 0 at right)\n",
		strings.Repeat("-", width), s.XLabel, xmax)
	return b.String()
}

// Comparison renders a paper-vs-measured table with relative errors,
// used by EXPERIMENTS.md generation and validation output.
func Comparison(title string, pairs []metrics.Pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-38s %10s %10s %8s\n", title, "metric", "paper", "measured", "err")
	for _, p := range pairs {
		fmt.Fprintf(&b, "%-38s %10.3f %10.3f %7.1f%%\n", p.Metric, p.Paper, p.Measured, p.RelErr()*100)
	}
	return b.String()
}
