// Package fault is the deterministic fault plane: a seedable schedule
// of node crashes and straggler episodes, injected into a simulated
// cluster entirely through the DES clock.
//
// A Plan is derived from (seed, cluster fingerprint) — never from
// wall-clock time — so the same seed against the same cluster yields
// the same faults, byte for byte, however the suite is sharded. The
// fingerprint covers node count and hardware specs only.
//
// Two fault classes, matching the failure modes that dominate
// cluster-design tradeoffs once "node failure is the steady state":
//
//   - Crash: the node goes down for a repair interval. All four of its
//     rate servers stall until the restart time (booking no busy time —
//     the meter sees downtime as idle), and the injector's crash hooks
//     let the execution layer abort in-flight queries so they can be
//     retried.
//   - Straggler: the node's CPU/disk/NIC service rates are divided by a
//     factor for an interval — degraded hardware, not dead hardware.
//     Work keeps flowing, slowly; tail latency absorbs the damage.
//
// Episode streams are generated per node with exponential interarrival
// times (MTTF for crashes, a fixed mean for stragglers), which
// is the standard renewal model for independent component failures.
//
// Recovery lives one layer up: pstore.RunWithRetry detects failed or
// timed-out queries and re-runs them under a capped exponential backoff
// (pstore.RetryPolicy), workload.RunFaulted drives a whole workload
// under a plan and bills goodput and energy including retries, and the
// fault1/fault2 experiments sweep MTTF and straggler intensity. This
// package is simulated code under the nodeterm analyzer: wall-clock
// reads and global rand draws are compile-gated out.
package fault
