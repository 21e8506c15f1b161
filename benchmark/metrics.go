package main

import "encoding/json"

// runSeconds is how long one run measures; smokeScale is the self-test
// size of every workload.
const (
	runSeconds = 10
	smokeScale = 1.0 / 50
)

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is
// rejected; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a count or simulated statistic that must repeat to the
	// digit on one commit and seed; -compare shouts when one differs.
	Exact bool `json:"-"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what an "operation" is per workload is in
// the README (a whole regeneration, one join, one HTTP request, one
// Server.Do). Bounds follow the run-to-run spread measured on a 2-core
// sandbox (README, "Steadiness"): between ten runs of one commit the
// timings moved by 8-25% on an ordinary hour and by far more when a
// neighbour was busy, so they carry the largest bound the contract
// allows; memory repeats within 6%, a third of its bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func exact(d metricDef) metricDef        { d.Exact = true; return d }

// perLayer are the single-layer metrics of the traced run, named
// <module>.<what>. All but host.* come from probes: fixed-operation-count
// loops over a module's public functions (probes.go), identical in every
// traced run whatever the workload. Counts documented as exact must
// repeat to the digit on one commit; "better" for those is nominal — any
// change means behaviour changed, not speed.
var perLayer = []metricDef{
	lower("sim.heap_ns_per_event", "ns"),
	lower("sim.hold_ns_per_switch", "ns"),
	lower("sim.queue_ns_per_handoff", "ns"),
	lower("sim.server_ns_per_process", "ns"),
	lower("sim.allocs_per_event", "allocs"),
	exact(lower("sim.events", "count")),
	lower("sim.host_ns_per_event", "ns"),

	higher("storage.partition_rows_per_s", "rows/s"),
	higher("storage.cursor_rows_per_s", "rows/s"),
	lower("storage.filter_gather_ns_per_row", "ns"),
	lower("storage.inttable_add_ns", "ns"),
	lower("storage.inttable_get_ns", "ns"),
	lower("storage.inttable_grow_ns", "ns"),

	lower("cluster.new_us", "us"),
	lower("cluster.send_recv_ns_per_msg", "ns"),

	lower("pstore.join_shuffle_sf100_ms", "ms"),
	lower("pstore.join_broadcast_sf100_ms", "ms"),
	lower("pstore.join_prepart_sf100_ms", "ms"),
	lower("pstore.concurrent4_sf100_ms", "ms"),
	exact(lower("pstore.join_sf100_events", "count")),
	lower("pstore.join_sf100_allocs", "allocs"),
	exact(lower("pstore.join_sf100_simsec", "s")),
	exact(lower("pstore.join_sf100_joules", "J")),
	lower("pstore.cache_hit_ns", "ns"),
	lower("pstore.cache_hit_allocs", "allocs"),
	lower("pstore.plan_us", "us"),
	lower("pstore.mat_join_self_ms", "ms"),
	lower("pstore.reference_join_ms", "ms"),

	lower("delta.apply_ns_per_row", "ns"),
	lower("delta.phantom_apply_ns_per_batch", "ns"),
	higher("delta.merged_scan_rows_per_s", "rows/s"),
	lower("delta.merge_ms", "ms"),

	lower("fault.newplan_us", "us"),
	lower("workload.faulted_mttf10_sf100_ms", "ms"),
	exact(lower("workload.faulted_retries", "count")),
	lower("workload.htap_rate8_sf100_ms", "ms"),
	exact(higher("workload.htap_txns", "count")),

	lower("experiments.fig3_ms", "ms"),
	lower("experiments.fig4_ms", "ms"),
	lower("experiments.fig7a_ms", "ms"),
	lower("experiments.fig7b_ms", "ms"),
	lower("experiments.htap1_ms", "ms"),
	lower("experiments.htap2_ms", "ms"),
	lower("experiments.fault1_ms", "ms"),
	lower("experiments.fault2_ms", "ms"),
	lower("experiments.model_ms", "ms"),
	exact(higher("experiments.cache_hits", "count")),
	exact(lower("experiments.cache_misses", "count")),
	exact(lower("experiments.paper_relerr_mean_pct", "%")),

	lower("report.markdown_ms", "ms"),
	lower("report.text_ms", "ms"),
	lower("report.json_ms", "ms"),
	lower("report.hist_observe_ns", "ns"),
	lower("report.hist_quantile_ns", "ns"),
	lower("report.encode_response_ns", "ns"),
	lower("report.encode_response_allocs", "allocs"),

	lower("service.decode_ns", "ns"),
	lower("service.decode_allocs", "allocs"),
	lower("service.decode_legacy_ns", "ns"),
	lower("service.decode_reject_ns", "ns"),
	lower("service.do_hit_ns", "ns"),
	lower("service.do_hit_allocs", "allocs"),
	lower("service.do_miss_sf10_ms", "ms"),
	lower("service.do_design_us", "us"),
	lower("service.metrics_us", "us"),
	lower("service.queue_us_p50", "us"),
	lower("service.queue_us_p99", "us"),
	lower("service.run_us_p50", "us"),
	exact(higher("service.memo_hit_ratio", "ratio")),
	lower("service.server_cpu_us_per_req", "us"),

	lower("http.overhead_us_p50", "us"),
	lower("http.overhead_us_p99", "us"),

	lower("fairq.push_pop_ns", "ns"),
	lower("fairq.push_pop_16t_ns", "ns"),
	lower("fairq.evict_low_ns", "ns"),
	lower("replay.load_us_per_event", "us"),
	lower("replay.synthetic_ns_per_event", "ns"),
	lower("core.recommend_us", "us"),

	lower("host.build_s", "s"),
	lower("host.calib_ms", "ms"),
	lower("host.calib_drift_pct", "%"),
	lower("host.trace_overhead_pct", "%"),
}

// manifestJSON renders BENCHMARK.json from the declarations above, so
// the file at the repository root cannot drift from what the program
// measures (a self-test compares the two).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bounds: the field is omitted when zero
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the struct above always marshals
	}
	return append(b, '\n')
}
