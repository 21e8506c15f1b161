package report

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/power"
)

func sampleSeries(t *testing.T) metrics.Series {
	t.Helper()
	s, err := metrics.NewSeries("t", []power.Point{
		{Label: "16N", Seconds: 100, Joules: 1000},
		{Label: "8N", Seconds: 156, Joules: 820},
	}, "16N")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeriesTableMarksEDPPosition(t *testing.T) {
	tbl := SeriesTable(sampleSeries(t))
	if !strings.Contains(tbl, "above") {
		t.Fatalf("table missing EDP position:\n%s", tbl)
	}
	if !strings.Contains(tbl, "8N") || !strings.Contains(tbl, "16N") {
		t.Fatalf("table missing labels:\n%s", tbl)
	}
}

func TestSeriesPlotContainsPointsAndLine(t *testing.T) {
	plot := SeriesPlot(sampleSeries(t), 40, 10)
	if !strings.Contains(plot, "o") {
		t.Fatal("plot has no data points")
	}
	if !strings.Contains(plot, ".") {
		t.Fatal("plot has no EDP line")
	}
	if strings.Count(plot, "\n") < 10 {
		t.Fatal("plot too short")
	}
}

func TestSeriesPlotMinimumDimensions(t *testing.T) {
	if plot := SeriesPlot(sampleSeries(t), 1, 1); len(plot) == 0 { // clamped up
		t.Fatal("empty plot")
	}
}

func TestComparison(t *testing.T) {
	out := Comparison("Fig X", []metrics.Pair{
		{Metric: "8N perf", Paper: 0.64, Measured: 0.66},
		{Metric: "zero", Paper: 0, Measured: 0},
	})
	if !strings.Contains(out, "8N perf") || !strings.Contains(out, "3.0%") {
		t.Fatalf("comparison output wrong:\n%s", out)
	}
}
