package fault

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Counts tallies episodes that actually fired: an episode scheduled after
// the run halted never does.
type Counts struct {
	Crashes    int
	Stragglers int
}

// Injector arms a plan against a cluster: every episode becomes DES
// events on the cluster's engine, all scheduled up front from root
// context (before the engine runs).
//
// The driver halts the engine when the workload completes, so the
// episodes still queued never run: a plan whose horizon outlives the
// workload does not drag the simulation (and its idle-energy bill) out to
// the horizon.
type Injector struct {
	fired   Counts
	onCrash []func(node int)
}

// Inject schedules the plan's episodes on the cluster. Must be called
// before the cluster runs (all event times are in the future of t=0).
func Inject(c *cluster.Cluster, p *Plan) *Injector {
	inj := &Injector{}
	if p.Empty() {
		return inj
	}
	eng := c.Eng
	for _, cr := range p.Crashes {
		cr := cr
		n := c.Nodes[cr.Node]
		eng.At(cr.At, func() {
			inj.fired.Crashes++
			n.Fail(eng.Now() + sim.Time(cr.Downtime))
			for _, hook := range inj.onCrash {
				hook(cr.Node)
			}
		})
		eng.At(cr.At+sim.Time(cr.Downtime), n.Restart)
	}
	for _, st := range p.Stragglers {
		st := st
		n := c.Nodes[st.Node]
		servers := []*sim.Server{n.CPU, n.Disk, n.Egress, n.Ingress}
		eng.At(st.At, func() {
			inj.fired.Stragglers++
			// Save the healthy rates and restore them exactly — a
			// divide-then-multiply round trip is not float-exact for
			// every factor. The restore is scheduled from inside the
			// degrade event: if the episode never starts, the rates
			// were never touched and no restore is needed.
			orig := make([]float64, len(servers))
			for i, s := range servers {
				orig[i] = s.Rate()
				s.SetRate(orig[i] / st.Factor)
			}
			eng.At(eng.Now()+sim.Time(st.Duration), func() {
				for i, s := range servers {
					s.SetRate(orig[i])
				}
			})
		})
	}
	return inj
}

// OnCrash registers a hook invoked (from the crash event, at crash
// virtual time) whenever a node goes down. The execution layer uses
// this to abort in-flight queries so the retry path can re-run them.
// Hooks run in registration order.
func (inj *Injector) OnCrash(fn func(node int)) { inj.onCrash = append(inj.onCrash, fn) }

// Fired returns the episode counts that actually executed.
func (inj *Injector) Fired() Counts { return inj.fired }
