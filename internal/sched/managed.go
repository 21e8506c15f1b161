package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/pstore"
	"repro/internal/sim"
)

// RunManaged executes the workload under the given policy with cluster
// power management — the consolidation approach of §2, fully simulated:
// whenever all in-flight queries have completed and the next release is
// further away than the nodes' wake transition, every node suspends
// (drawing SleepModelWatts) and wakes just in time for the release. The
// wake transition burns idle power, reproducing the paper's "direct
// costs" of switching servers on and off.
//
// Per-query response times are identical to Run under the same policy;
// only the energy differs. The result reports both power rates: IdleWatts
// remains the engine-idle floor f(G), while TailWatts is the suspended
// draw, so EnergyOver extends the horizon at the rate the managed cluster
// actually pays while sleeping through the tail gap.
func RunManaged(c *cluster.Cluster, cfg pstore.Config, wl Workload, policy Policy) (Result, error) {
	if len(wl) == 0 {
		return Result{}, fmt.Errorf("sched: empty workload")
	}
	exec := pstore.New(c, cfg)
	res := Result{Policy: policy.String() + "+sleep", Queries: make([]QueryResult, len(wl))}
	handles := make([]*pstore.Handle, len(wl))

	// Release schedule, known upfront.
	releases := make([]float64, len(wl))
	distinct := map[float64]bool{}
	for i, q := range wl {
		releases[i] = policy.ReleaseAt(q.Arrival)
		if releases[i] < 0 {
			return Result{}, fmt.Errorf("sched: %s released at negative time", wl[i].Name)
		}
		distinct[releases[i]] = true
	}
	var boundaries []float64
	for r := range distinct {
		boundaries = append(boundaries, r)
	}
	sort.Float64s(boundaries)

	// The wake lead time is the slowest node's transition.
	lead := 0.0
	for _, n := range c.Nodes {
		lead = math.Max(lead, n.Spec.WakeDelay())
	}

	nextReleaseAfter := func(t float64) (float64, bool) {
		for _, b := range boundaries {
			if b > t+1e-9 {
				return b, true
			}
		}
		return 0, false
	}

	outstanding := 0
	var launchErr error

	// maybeSleep suspends the cluster if nothing is running and the next
	// release is far enough away to be worth it.
	maybeSleep := func() {
		if outstanding > 0 {
			return
		}
		now := c.Eng.Now()
		next, ok := nextReleaseAfter(now)
		if !ok {
			return // tail idle handled by the caller via EnergyOver analyses
		}
		if next-now <= lead+1e-9 {
			return // not worth the transition
		}
		slept := false
		for _, n := range c.Nodes {
			if err := n.Sleep(); err == nil {
				slept = true
			}
		}
		if !slept {
			return
		}
		c.Eng.At(next-lead, func() {
			for _, n := range c.Nodes {
				n.Wake()
			}
		})
	}

	for i, q := range wl {
		i, q := i, q
		at := releases[i]
		res.Queries[i] = QueryResult{Name: q.Name, Arrival: q.Arrival, Launched: at}
		c.Eng.At(at, func() {
			h, err := exec.LaunchJoin(fmt.Sprintf("wl.%d.%s", i, q.Name), q.Spec)
			if err != nil {
				if launchErr == nil {
					launchErr = err
					c.Eng.Halt()
				}
				return
			}
			handles[i] = h
			outstanding++
			// Watch for completion; when the cluster quiesces, consider
			// sleeping until the next release.
			c.Eng.Go(fmt.Sprintf("wl.watch.%d", i), func(p *sim.Proc) {
				h.Done.Wait(p)
				outstanding--
				if outstanding == 0 {
					maybeSleep()
				}
			})
		})
	}
	// Initial gap: the cluster may sleep before the first release too.
	c.Eng.Schedule(0, maybeSleep)

	c.Run()
	c.Stop()
	if launchErr != nil {
		return Result{}, launchErr
	}
	for i, h := range handles {
		if h == nil || !h.Done.Fired() {
			return Result{}, fmt.Errorf("sched: query %s did not complete", wl[i].Name)
		}
		if h.Err != nil {
			return Result{}, h.Err
		}
		res.Queries[i].Finished = res.Queries[i].Launched + h.Result.Seconds
		res.Makespan = math.Max(res.Makespan, res.Queries[i].Finished)
		res.MeanResp += res.Queries[i].Response()
		res.MaxResp = math.Max(res.MaxResp, res.Queries[i].Response())
	}
	res.MeanResp /= float64(len(wl))
	res.Joules = c.TotalJoules()
	for _, nd := range c.Nodes {
		res.IdleWatts += nd.Spec.Power.Watts(nd.Spec.UtilFloor)
		res.TailWatts += nd.Spec.SleepModelWatts()
	}
	return res, nil
}
