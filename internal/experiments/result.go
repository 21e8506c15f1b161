package experiments

import (
	"repro/internal/metrics"
	"repro/internal/pstore"
	"repro/internal/tpch"
)

// Options parameterizes a single experiment run. The zero value
// reproduces the paper's published configuration.
type Options struct {
	// SF is the TPC-H scale factor for the Figure 3-5 engine runs
	// (default Fig35SF = 100; the paper used 1000). Every reported
	// quantity is a normalized ratio between cluster designs, so the
	// curves are scale-invariant (TestFig3ScaleInvariance). The
	// Figure 6-9 experiments are anchored to the paper's §5.2/§5.3
	// setups and ignore SF.
	SF tpch.ScaleFactor
	// Joins executes P-store joins. Inject a shared *pstore.Cache to
	// memoize identical (cluster, Config, JoinSpec, concurrency) runs
	// across experiments — fig3/fig4/fig5, fig7a/fig8 and fig7b/fig9
	// re-simulate the same joins. Default: pstore.Engine{} (uncached).
	Joins pstore.JoinRunner
	// Shards bounds the worker pool for intra-experiment sharding: the
	// independent simulation points inside one experiment (cluster size x
	// concurrency grids, selectivity grid values, plan candidates,
	// microbench systems) fan out over par.Map. Every point owns a
	// private engine and outputs are reassembled in grid order, so the
	// Result is byte-identical at any setting (TestShardedMatchesSerial).
	// <= 0 means GOMAXPROCS; 1 runs the grid serially.
	Shards int
	// FaultSeed seeds the fault1/fault2 fault plans (default 1; 0 means
	// the default, so the zero Options value stays the published
	// configuration). The plan also mixes in the cluster fingerprint,
	// so each grid point draws its own schedule.
	FaultSeed int64
}

func (o Options) withDefaults() Options {
	if o.SF <= 0 {
		o.SF = Fig35SF
	}
	if o.Joins == nil {
		o.Joins = pstore.Engine{}
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	return o
}

// Result is one regenerated experiment as structured data: normalized
// series, typed tables and paper-vs-measured pairs. Rendering (text,
// Markdown, JSON) lives in internal/report, so downstream tools — the
// cache layer, the EXPERIMENTS.md emitter, JSON consumers — work with
// numbers instead of re-parsing preformatted text.
type Result struct {
	ID    string
	Title string
	// Series are figure-like normalized curves.
	Series []metrics.Series
	// Tables are structured tables (configuration blocks, raw
	// measurement grids).
	Tables []Table
	// Pairs compare paper-reported numbers against measured ones.
	Pairs []metrics.Pair
}

// Table is one structured experiment table: named, typed cells plus the
// printf layout that reproduces the paper artifact's text byte-for-byte.
// Structured emitters (JSON) read Name/Columns/Rows and ignore the
// layout; the text emitter applies Layout verbatim.
type Table struct {
	// Name identifies the table within its experiment ("configuration",
	// "summary", "knees", ...).
	Name string
	// Columns names the cells of each row. Free-form tables (key-value
	// configuration blocks) use a repeating field/value convention.
	Columns []string
	// Rows holds the typed cells: string labels and float64/int
	// measurements, one slice per row.
	Rows [][]any

	Layout Layout
}

// Layout is the text-rendering recipe of a Table. Title and Footer are
// printed verbatim (before and after the grid), HeaderFmt is a printf
// layout applied to Columns, and RowFmts[i] is the printf layout applied
// to Rows[i]; all include their own trailing newlines. Structured
// emitters ignore it entirely.
type Layout struct {
	Title     string
	HeaderFmt string
	RowFmts   []string
	Footer    string
}

// NewTable starts a table with the given name and column names.
func NewTable(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// Titled sets the verbatim preamble line(s) and returns the table.
func (t *Table) Titled(title string) *Table {
	t.Layout.Title = title
	return t
}

// Header sets the printf layout rendering Columns as the header line.
func (t *Table) Header(format string) *Table {
	t.Layout.HeaderFmt = format
	return t
}

// Row appends one row of typed cells with the printf layout that
// renders it.
func (t *Table) Row(format string, cells ...any) *Table {
	t.Layout.RowFmts = append(t.Layout.RowFmts, format)
	t.Rows = append(t.Rows, cells)
	return t
}

// Footed sets the verbatim trailing line(s) and returns the table.
func (t *Table) Footed(footer string) *Table {
	t.Layout.Footer = footer
	return t
}
