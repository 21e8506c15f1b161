// Package sched extends the paper's single-query study toward entire
// workloads — the extension Section 6 explicitly calls for ("we need to
// expand the study to include entire workloads") and Section 2 surveys
// (delaying execution of workloads due to energy concerns [20, 23]).
//
// A Workload is a stream of join queries with arrival times. Two
// scheduling policies are provided:
//
//   - Immediate: launch each query the moment it arrives. Response
//     times are minimal, but a sparse stream leaves the always-on
//     cluster idling at f(G) watts between queries.
//   - Batched(window): hold arrivals and release them together every
//     `window` seconds. Queries run concurrently, the cluster's busy
//     period compresses, and the total metered energy (including idle
//     gaps) drops — at the cost of queueing latency.
//
// The scheduler runs on the same simulated cluster and P-store engine as
// everything else, so contention between concurrent queries (the Figure
// 3 effect) is part of the result, not an assumption.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/pstore"
)

// Query is one workload element.
type Query struct {
	Name    string
	Arrival float64 // seconds since workload start
	Spec    pstore.JoinSpec
}

// Workload is a set of queries, not necessarily sorted by arrival.
type Workload []Query

// Span returns the latest arrival time.
func (w Workload) Span() float64 {
	var last float64
	for _, q := range w {
		last = math.Max(last, q.Arrival)
	}
	return last
}

// Policy releases queries to the engine.
type Policy interface {
	// ReleaseAt maps a query's arrival time to its launch time.
	ReleaseAt(arrival float64) float64
	String() string
}

// Immediate launches every query at its arrival time.
type Immediate struct{}

// ReleaseAt implements Policy.
func (Immediate) ReleaseAt(arrival float64) float64 { return arrival }

func (Immediate) String() string { return "immediate" }

// Batched releases queries at the next multiple of Window after their
// arrival (arrivals exactly on a boundary run at that boundary).
type Batched struct{ Window float64 }

// ReleaseAt implements Policy.
func (b Batched) ReleaseAt(arrival float64) float64 {
	if b.Window <= 0 {
		return arrival
	}
	return math.Ceil(arrival/b.Window) * b.Window
}

func (b Batched) String() string { return fmt.Sprintf("batched(%.0fs)", b.Window) }

// QueryResult reports one completed query.
type QueryResult struct {
	Name     string
	Arrival  float64
	Launched float64
	Finished float64
}

// Response returns arrival-to-completion latency (includes queueing).
func (r QueryResult) Response() float64 { return r.Finished - r.Arrival }

// Execution returns launch-to-completion time.
func (r QueryResult) Execution() float64 { return r.Finished - r.Launched }

// Result reports a full workload execution.
type Result struct {
	Policy    string
	Makespan  float64 // time from workload start to last completion
	Joules    float64 // total metered cluster energy over the makespan
	IdleWatts float64 // cluster power at the engine-idle floor f(G)
	// TailWatts is the power rate EnergyOver charges for the horizon
	// extension beyond Makespan. Run reports the engine-idle floor (the
	// cluster keeps idling); RunManaged reports the suspended rate (a
	// power-managed cluster sleeps through the tail gap). Zero falls
	// back to IdleWatts so hand-built Results keep working.
	TailWatts float64
	Queries   []QueryResult
	MeanResp  float64
	MaxResp   float64
}

// EnergyOver returns the cluster energy over a fixed accounting horizon:
// the metered joules plus TailWatts (IdleWatts if unset) for the time
// between Makespan and the horizon. This is the fair basis for comparing
// scheduling policies whose makespans differ (the cluster does not vanish
// when the last query finishes).
//
// A horizon below Makespan is clamped to Makespan: the metered energy is
// already spent, so the window can never be shorter than the run itself.
// Callers comparing policies should pass a common horizon at least as
// large as every makespan involved.
func (r Result) EnergyOver(horizon float64) float64 {
	if horizon <= r.Makespan {
		return r.Joules
	}
	tail := r.TailWatts
	if tail == 0 {
		tail = r.IdleWatts
	}
	return r.Joules + tail*(horizon-r.Makespan)
}

// Gaps returns the maximal intervals within [0, horizon] during which no
// query is running, as (start, end) pairs. Busy intervals are clamped to
// [0, horizon] first, so no gap ever starts or ends outside the
// accounting window — a query launched or still running past the horizon
// contributes nothing beyond it.
func (r Result) Gaps(horizon float64) [][2]float64 {
	if horizon <= 0 {
		return nil
	}
	type iv struct{ a, b float64 }
	var busy []iv
	for _, q := range r.Queries {
		a, b := math.Max(q.Launched, 0), math.Min(q.Finished, horizon)
		if b > a {
			busy = append(busy, iv{a, b})
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].a < busy[j].a })
	var gaps [][2]float64
	cursor := 0.0
	for _, b := range busy {
		if b.a > cursor {
			gaps = append(gaps, [2]float64{cursor, b.a})
		}
		if b.b > cursor {
			cursor = b.b
		}
	}
	if horizon > cursor {
		gaps = append(gaps, [2]float64{cursor, horizon})
	}
	return gaps
}

// EnergyWithSleep estimates the workload energy over the horizon if the
// cluster could sleep during idle gaps — the consolidation-and-power-down
// approach the paper surveys in §2 [23, 24, 27]. A gap only yields
// savings beyond the wakeSeconds transition time (during which the
// cluster still burns idle power); while asleep it draws sleepWatts
// instead of IdleWatts. Batched scheduling consolidates many short gaps
// into few long ones, which is exactly what makes sleeping effective.
// Gaps are clamped to [0, horizon], so no savings are ever credited for
// time outside the accounting window.
//
// The estimate applies to unmanaged (Run) results. RunManaged results
// already meter sleep and charge a sleep-aware tail rate; applying
// EnergyWithSleep to one would credit the same savings twice.
func (r Result) EnergyWithSleep(horizon, sleepWatts, wakeSeconds float64) float64 {
	e := r.EnergyOver(horizon)
	if sleepWatts >= r.IdleWatts {
		return e
	}
	for _, g := range r.Gaps(horizon) {
		if usable := (g[1] - g[0]) - wakeSeconds; usable > 0 {
			e -= usable * (r.IdleWatts - sleepWatts)
		}
	}
	return e
}

// Run executes the workload on the cluster under the given policy and
// returns per-query and aggregate results. The cluster is consumed (its
// meters are stopped); use a fresh cluster per run.
func Run(c *cluster.Cluster, cfg pstore.Config, wl Workload, policy Policy) (Result, error) {
	if len(wl) == 0 {
		return Result{}, fmt.Errorf("sched: empty workload")
	}
	exec := pstore.New(c, cfg)
	res := Result{Policy: policy.String(), Queries: make([]QueryResult, len(wl))}
	handles := make([]*pstore.Handle, len(wl))
	var launchErr error
	for i, q := range wl {
		i, q := i, q
		at := policy.ReleaseAt(q.Arrival)
		if at < 0 {
			return Result{}, fmt.Errorf("sched: %s released at negative time", q.Name)
		}
		res.Queries[i] = QueryResult{Name: q.Name, Arrival: q.Arrival, Launched: at}
		c.Eng.At(at, func() {
			h, err := exec.LaunchJoin(fmt.Sprintf("wl.%d.%s", i, q.Name), q.Spec)
			if err != nil && launchErr == nil {
				launchErr = err
				c.Eng.Halt()
				return
			}
			handles[i] = h
		})
	}
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
	}
	res.TailWatts = res.IdleWatts // an unmanaged cluster keeps idling
	return res, nil
}

// Periodic builds a workload of n copies of spec arriving every interval
// seconds, starting at t=0.
func Periodic(spec pstore.JoinSpec, n int, interval float64) Workload {
	wl := make(Workload, n)
	for i := range wl {
		wl[i] = Query{
			Name:    fmt.Sprintf("q%d", i),
			Arrival: float64(i) * interval,
			Spec:    spec,
		}
	}
	return wl
}

// Compare runs the same workload under both policies on fresh clusters
// built by mk, returning (immediate, batched) results — the
// energy-vs-latency trade of delayed execution.
func Compare(mk func() (*cluster.Cluster, error), cfg pstore.Config, wl Workload, window float64) (imm, bat Result, err error) {
	ci, err := mk()
	if err != nil {
		return
	}
	imm, err = Run(ci, cfg, wl, Immediate{})
	if err != nil {
		return
	}
	cb, err := mk()
	if err != nil {
		return
	}
	bat, err = Run(cb, cfg, wl, Batched{Window: window})
	return
}
