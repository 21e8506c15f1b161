package fault

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Config parameterizes plan generation. Zero values disable the
// corresponding fault class, so Config{} yields an empty plan and a run
// indistinguishable from an unfaulted one.
type Config struct {
	// Seed drives the plan's random draws (mixed with the cluster
	// fingerprint). The same seed on the same cluster gives the same
	// plan.
	Seed int64
	// Horizon bounds episode start times: no episode begins at or after
	// this virtual time. Episodes in flight at the horizon run to their
	// scheduled end.
	Horizon sim.Time

	// MTTF is the per-node mean time to failure in virtual seconds;
	// 0 disables crashes. MTTR is the mean repair time (downtime is
	// uniform in [0.5*MTTR, 1.5*MTTR)); it must be > 0 when crashes are
	// enabled.
	MTTF float64
	MTTR float64

	// StragglerEvery is the per-node mean seconds between straggler
	// episodes; 0 disables them. Each episode lasts StragglerSecs
	// (> 0) and divides the node's service rates by StragglerFactor
	// (>= 1).
	StragglerEvery  float64
	StragglerSecs   float64
	StragglerFactor float64
}

// Validate rejects configs that cannot generate a well-formed plan.
func (c Config) Validate() error {
	bad := func(name string, v float64) error {
		return fmt.Errorf("fault: %s %v must be finite and nonnegative", name, v)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Horizon", float64(c.Horizon)},
		{"MTTF", c.MTTF},
		{"MTTR", c.MTTR},
		{"StragglerEvery", c.StragglerEvery},
		{"StragglerSecs", c.StragglerSecs},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return bad(f.name, f.v)
		}
	}
	if f := c.StragglerFactor; math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || (f > 0 && f < 1) {
		return fmt.Errorf("fault: StragglerFactor %v must be >= 1 (or 0 with stragglers off)", f)
	}
	if c.MTTF > 0 && c.MTTR == 0 {
		return fmt.Errorf("fault: MTTR must be > 0 when crashes are on (MTTF %v)", c.MTTF)
	}
	if c.StragglerEvery > 0 && (c.StragglerSecs == 0 || c.StragglerFactor == 0) {
		return fmt.Errorf("fault: stragglers on (StragglerEvery %v) need StragglerSecs > 0 and StragglerFactor >= 1, got %v and %v",
			c.StragglerEvery, c.StragglerSecs, c.StragglerFactor)
	}
	return nil
}

// Enabled reports whether the config can produce any episode at all.
func (c Config) Enabled() bool {
	return c.Horizon > 0 && (c.MTTF > 0 || c.StragglerEvery > 0)
}

// Crash is one node outage: the node goes down at At and restarts
// Downtime seconds later.
type Crash struct {
	Node     int
	At       sim.Time
	Downtime float64
}

// Straggler is one degraded-hardware episode: the node's CPU, disk and
// NIC rates are divided by Factor during [At, At+Duration).
type Straggler struct {
	Node     int
	At       sim.Time
	Duration float64
	Factor   float64
}

// Plan is a fully materialized fault schedule. Each slice is sorted by
// (At, Node); per node, episodes of a class never overlap.
type Plan struct {
	Seed       int64
	Crashes    []Crash
	Stragglers []Straggler
}

// Empty reports whether the plan schedules no episodes.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Stragglers) == 0)
}

// String summarizes the plan for logs and error messages.
func (p *Plan) String() string {
	if p.Empty() {
		return "fault.Plan{empty}"
	}
	return fmt.Sprintf("fault.Plan{seed=%d crashes=%d stragglers=%d}",
		p.Seed, len(p.Crashes), len(p.Stragglers))
}

// Fingerprint hashes the cluster's fault-relevant identity: node count
// and per-node hardware specs, in node order. Nothing about how the run
// is executed enters it — plans must be identical across -shards and -j
// settings.
func Fingerprint(c *cluster.Cluster) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "n=%d;", len(c.Nodes))
	for _, n := range c.Nodes {
		fmt.Fprintf(h, "%+v;", n.Spec)
	}
	return h.Sum64()
}

// NewPlan materializes the fault schedule for the given cluster. The
// generator is seeded from cfg.Seed mixed with the cluster fingerprint,
// so distinct clusters draw distinct schedules even under the same
// seed. Draw order is fixed (node-major, class-major) and independent
// of everything but (seed, fingerprint, cfg).
func NewPlan(cfg Config, c *cluster.Cluster) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Seed: cfg.Seed}
	if !cfg.Enabled() {
		return p, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(Fingerprint(c))))
	// exp draws an exponential interarrival with the given mean. The
	// 1-F inversion keeps the draw strictly positive.
	exp := func(mean float64) float64 {
		return -mean * math.Log(1-rng.Float64())
	}
	for node := range c.Nodes {
		if cfg.MTTF > 0 {
			// Sequential episodes: the next failure clock starts when
			// the node comes back up, so outages never overlap.
			for t := sim.Time(exp(cfg.MTTF)); t < cfg.Horizon; t += sim.Time(exp(cfg.MTTF)) {
				down := cfg.MTTR * (0.5 + rng.Float64())
				p.Crashes = append(p.Crashes, Crash{Node: node, At: t, Downtime: down})
				t += sim.Time(down)
			}
		}
		if cfg.StragglerEvery > 0 {
			for t := sim.Time(exp(cfg.StragglerEvery)); t < cfg.Horizon; t += sim.Time(exp(cfg.StragglerEvery)) {
				p.Stragglers = append(p.Stragglers, Straggler{
					Node: node, At: t, Duration: cfg.StragglerSecs, Factor: cfg.StragglerFactor,
				})
				t += sim.Time(cfg.StragglerSecs)
			}
		}
	}
	sort.Slice(p.Crashes, func(i, j int) bool {
		a, b := p.Crashes[i], p.Crashes[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Node < b.Node
	})
	sort.Slice(p.Stragglers, func(i, j int) bool {
		a, b := p.Stragglers[i], p.Stragglers[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Node < b.Node
	})
	return p, nil
}
