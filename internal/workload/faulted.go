package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/pstore"
	"repro/internal/sim"
)

// FaultedSpec describes one mixed run under a fault plan: the HTAP
// workload (analytics, plus the update stream when a rate is set)
// executed while the fault plane crashes nodes and degrades hardware,
// with query-level retry absorbing the damage.
type FaultedSpec struct {
	HTAP HTAPSpec
	// Faults parameterizes the deterministic fault plan (seed, MTTF,
	// straggler processes). A zero config injects nothing and
	// the run's query timings match RunHTAP exactly.
	Faults fault.Config
	// Retry bounds per-query failure recovery (zero = pstore defaults;
	// set Timeout to arm the straggler-defense deadline).
	Retry pstore.RetryPolicy
}

// FaultedResult reports one faulted run.
type FaultedResult struct {
	// Makespan is the virtual time at which the analytics driver
	// finished (last query completed or gave up).
	Makespan float64
	// QuerySeconds are per completed query the issue-to-success wall
	// times — retries and backoff included, which is the latency a
	// client actually observes.
	QuerySeconds []float64
	// Retries counts relaunches across all queries; Failed counts
	// queries that exhausted their retry budget.
	Retries, Failed int
	// Faults tallies the episodes that fired before the makespan.
	Faults fault.Counts
	// DownSeconds sums node downtime overlapping the run, across nodes.
	DownSeconds float64
	// Joules is the cluster's total energy to the makespan — retries,
	// downtime idle power and straggler slowdowns all included.
	Joules float64
}

// Goodput is successful queries per virtual second of makespan — the
// availability-adjusted analytics throughput.
func (r FaultedResult) Goodput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.QuerySeconds)) / r.Makespan
}

// JoulesPerGoodQuery divides the run's total energy across successful
// queries: the energy bill of fault tolerance, wasted attempts
// included. 0 when nothing succeeded.
func (r FaultedResult) JoulesPerGoodQuery() float64 {
	if len(r.QuerySeconds) == 0 {
		return 0
	}
	return r.Joules / float64(len(r.QuerySeconds))
}

// RunFaulted executes one HTAP run under a fault plan derived from
// spec.Faults and the cluster fingerprint. The analytics driver issues
// queries through pstore's retry path: node crashes abort in-flight
// queries (the injector's crash hook voids every launched handle, since
// each join scans every node), launch admission refuses down nodes, and
// the deadline watchdog re-runs queries stuck behind stragglers. The
// simulation halts at the driver's makespan — pending fault episodes
// past the workload are disarmed so they cannot drag the energy bill
// out to the plan horizon.
//
// Determinism: the plan depends only on (seed, cluster fingerprint,
// config); the injector schedules all episodes up front; aborts are
// cooperative flags observed at deterministic event points. A zero-fault
// config reproduces RunHTAP's per-query timings exactly.
func RunFaulted(c *cluster.Cluster, cfg pstore.Config, spec FaultedSpec) (FaultedResult, error) {
	hspec := spec.HTAP.withDefaults()
	plan, err := fault.NewPlan(spec.Faults, c)
	if err != nil {
		return FaultedResult{}, err
	}
	pl, err := buildHTAPPlant(c, cfg, hspec)
	if err != nil {
		return FaultedResult{}, err
	}
	inj := fault.Inject(c, plan)
	inj.OnCrash(func(node int) {
		pl.e.AbortInFlight(fmt.Errorf("pstore: %w: node %d crashed", pstore.ErrNodeDown, node))
	})

	res := FaultedResult{}
	c.Eng.Go("fault.driver", func(p *sim.Proc) {
		for q := 0; q < hspec.Queries; q++ {
			issued := p.Now()
			_, retries, rerr := pl.e.RunWithRetry(p, fmt.Sprintf("fault.q%d", q), pl.join, spec.Retry)
			res.Retries += retries
			if rerr != nil {
				res.Failed++
				continue
			}
			res.QuerySeconds = append(res.QuerySeconds, p.Now()-issued)
		}
		res.Makespan = p.Now()
		pl.stop()
		c.Eng.Halt()
	})

	c.Run()
	// Every query has drained by the halt, so a cursor still open here
	// leaked across retries.
	leaked := pl.e.OpenCursors()
	c.Stop()
	if got := len(res.QuerySeconds) + res.Failed; got != hspec.Queries {
		return FaultedResult{}, fmt.Errorf("workload: %d of %d faulted queries accounted for (deadlock?)",
			got, hspec.Queries)
	}
	if leaked != 0 {
		return FaultedResult{}, fmt.Errorf("workload: %d scan cursors leaked across retries", leaked)
	}
	res.Joules = c.TotalJoules()
	res.Faults = inj.Fired()
	for _, nd := range c.Nodes {
		res.DownSeconds += nd.DownBetween(0, sim.Time(res.Makespan))
	}
	return res, nil
}
