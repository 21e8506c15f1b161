// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a typed Result containing
// normalized energy/performance series, structured tables, and
// paper-vs-measured comparison pairs; internal/report renders Results as
// text, Markdown (the EXPERIMENTS.md format) or JSON.
//
// Experiment IDs follow the paper: table1, fig1a, fig1b, fig2a, fig2b,
// hadoopdb, fig3, fig4, fig5, table2, fig6, fig7a, fig7b, fig8, fig9,
// table3, fig10a, fig10b, fig11, fig12. Four extension experiments go
// beyond the paper's read-only, always-healthy scope: htap1/htap2
// re-measure the energy trade-offs with the HTAP write path running
// (internal/delta), and fault1/fault2 price fault tolerance — node
// crashes with query retry, and straggler-induced tail latency — under
// the deterministic fault plane (internal/fault).
//
// Scale note: engine-backed experiments (fig3-fig7) run the actual
// P-store engine in phantom-batch mode. Figures 3-5 use TPC-H scale 100
// rather than the paper's 1000 to keep regeneration fast; every reported
// quantity is a ratio between cluster designs, and all phases scale
// linearly in data volume, so the normalized curves are scale-invariant
// (verified by TestFig3ScaleInvariance). Options overrides the scale
// factor (cmd/repro -sf 1000 reproduces the paper's scale directly),
// the join runner (inject a shared *pstore.Cache to memoize identical
// joins across experiments), the intra-experiment shard worker count
// (each experiment's grid of independent simulations fans out over
// par.Map with byte-identical output; see TestShardedMatchesSerial) and
// the fault-plan seed. Everything else is the paper's configuration.
package experiments

import "sort"

// Experiment couples an ID with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (Result, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Cluster-V configuration and SysPower model", Table1},
		{"fig1a", "Vertica TPC-H Q12 (SF1000): cluster size vs energy/performance", Fig1a},
		{"fig1b", "Modeled 8-node Beefy/Wimpy designs, ORDERS 10% / LINEITEM 1%", Fig1b},
		{"fig2a", "Vertica TPC-H Q1: ideal speedup, flat energy", Fig2a},
		{"fig2b", "Vertica TPC-H Q21: near-ideal speedup", Fig2b},
		{"hadoopdb", "HadoopDB: coordination overhead (results omitted in paper)", HadoopDB},
		{"fig3", "P-store dual-shuffle join, concurrency 1/2/4", Fig3},
		{"fig4", "P-store broadcast join, concurrency 1/2/4", Fig4},
		{"fig5", "Join plan summary: half vs full cluster", Fig5},
		{"table2", "Single-node system configurations", Table2},
		{"fig6", "Single-node hash join: energy vs response time", Fig6},
		{"fig7a", "AB vs BW clusters, ORDERS 1% (homogeneous execution)", Fig7a},
		{"fig7b", "AB vs BW clusters, ORDERS 10% (heterogeneous execution)", Fig7b},
		{"fig8", "Model validation, ORDERS 1% (homogeneous)", Fig8},
		{"fig9", "Model validation, ORDERS 10% (heterogeneous)", Fig9},
		{"table3", "Model variables", Table3},
		{"fig10a", "Modeled mix sweep, ORDERS 1% / LINEITEM 10% (homogeneous)", Fig10a},
		{"fig10b", "Modeled mix sweep, ORDERS 10% / LINEITEM 10% (heterogeneous)", Fig10b},
		{"fig11", "Knee movement: ORDERS 10%, LINEITEM 2-10%", Fig11},
		{"fig12", "Design principles walkthrough (target = 0.6 performance)", Fig12},
		{"htap1", "HTAP: analytics vs transactional update rate", Htap1},
		{"htap2", "HTAP: energy per transaction and per query across designs", Htap2},
		{"fault1", "Fault tolerance: availability and energy vs node MTTF", Fault1},
		{"fault2", "Fault tolerance: straggler intensity vs tail latency", Fault2},
	}
}

// IDs returns every experiment ID, sorted.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}
