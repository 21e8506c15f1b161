package pstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// JoinRunner abstracts the execution of P-store joins so higher layers
// (the experiment generators, the benchmark harness, future service
// modes) can inject caching, sharding or instrumentation between
// themselves and the engine without changing call sites.
type JoinRunner interface {
	// RunJoin executes one join to completion on the given cluster and
	// returns the result plus the cluster's total energy in joules.
	RunJoin(c *cluster.Cluster, cfg Config, spec JoinSpec) (JoinResult, float64, error)
	// RunConcurrent executes k simultaneous copies of spec and returns
	// the makespan, per-query response times and total energy.
	RunConcurrent(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) (makespan float64, perQuery []float64, joules float64, err error)
}

// Engine is the pass-through JoinRunner: every call runs a fresh
// simulation via RunJoin/RunConcurrent.
type Engine struct{}

// RunJoin implements JoinRunner.
func (Engine) RunJoin(c *cluster.Cluster, cfg Config, spec JoinSpec) (JoinResult, float64, error) {
	return RunJoin(c, cfg, spec)
}

// RunConcurrent implements JoinRunner.
func (Engine) RunConcurrent(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) (float64, []float64, float64, error) {
	return RunConcurrent(c, cfg, spec, k)
}

// CacheStats counts cache traffic: Hits is answered-from-memory (or
// joined onto an identical in-flight run), Misses is actual engine
// invocations.
type CacheStats struct {
	Hits, Misses int64
}

// Requests is the total number of joins asked of the cache.
func (s CacheStats) Requests() int64 { return s.Hits + s.Misses }

// Cache is a content-keyed memoizing JoinRunner: two requests with the
// same cluster fingerprint (node hardware specs in order), engine Config,
// JoinSpec and concurrency level return the same result, simulating only
// once. The simulation is deterministic, so a cached result is
// bit-identical to a fresh run; experiments that re-simulate the same
// join (fig3/fig4/fig5, fig7a/fig8, fig7b/fig9) share work when handed a
// common Cache.
//
// Cache is safe for concurrent use; a request for an in-flight key waits
// for the running simulation instead of duplicating it.
type Cache struct {
	inner JoinRunner

	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits, misses atomic.Int64
}

type cacheEntry struct {
	done chan struct{}

	res      JoinResult
	makespan float64
	perQuery []float64
	joules   float64
	err      error
}

// NewCache wraps inner (nil means Engine{}) in a memoizing cache.
func NewCache(inner JoinRunner) *Cache {
	if inner == nil {
		inner = Engine{}
	}
	return &Cache{inner: inner, entries: make(map[string]*cacheEntry)}
}

// Stats returns the hit/miss counters so far.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// do is the cache's one single-flight path. The first request for key
// publishes a fresh entry (under the lock, so concurrent requests for
// the key wait on done instead of re-simulating), runs fill on it and
// closes done; every other request waits for done and shares the entry.
// A fill that panics abandons the entry: it is dropped, so a later
// request re-simulates, and current waiters get an error instead of
// blocking forever.
func (c *Cache) do(key string, fill func(*cacheEntry)) (e *cacheEntry, hit bool) {
	c.mu.Lock()
	e, hit = c.entries[key]
	if !hit {
		e = &cacheEntry{done: make(chan struct{})}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if hit {
		<-e.done
		c.hits.Add(1)
		return e, true
	}
	c.misses.Add(1)
	filled := false
	defer func() {
		if !filled {
			e.err = fmt.Errorf("pstore: cache: shared simulation for this key panicked")
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			close(e.done)
		}
	}()
	fill(e)
	filled = true
	close(e.done)
	return e, false
}

// RunJoin implements JoinRunner with memoization.
func (c *Cache) RunJoin(cl *cluster.Cluster, cfg Config, spec JoinSpec) (JoinResult, float64, error) {
	res, joules, _, err := c.RunJoinHit(cl, cfg, spec)
	return res, joules, err
}

// RunJoinHit is RunJoin plus a per-request hit report: hit is true when
// the result came from a completed or in-flight shared simulation rather
// than a fresh engine run. The service mode uses it to tag each streamed
// response as answered-from-memory or simulated.
func (c *Cache) RunJoinHit(cl *cluster.Cluster, cfg Config, spec JoinSpec) (res JoinResult, joules float64, hit bool, err error) {
	e, hit := c.do(fingerprint(cl, cfg, spec, 1), func(e *cacheEntry) {
		e.res, e.joules, e.err = c.inner.RunJoin(cl, cfg, spec)
	})
	return e.res, e.joules, hit, e.err
}

// RunConcurrent implements JoinRunner with memoization. A k=1 request is
// served from (and populates) the single-join cache: one concurrent copy
// is the same simulation as RunJoin, so fig3's concurrency-1 sweep and
// fig5's plan summary share engine runs. Each caller gets its own copy
// of perQuery.
func (c *Cache) RunConcurrent(cl *cluster.Cluster, cfg Config, spec JoinSpec, k int) (float64, []float64, float64, error) {
	if k == 1 {
		res, joules, err := c.RunJoin(cl, cfg, spec)
		if err != nil {
			return 0, nil, 0, err
		}
		return res.Seconds, []float64{res.Seconds}, joules, nil
	}
	e, _ := c.do(fingerprint(cl, cfg, spec, k), func(e *cacheEntry) {
		e.makespan, e.perQuery, e.joules, e.err = c.inner.RunConcurrent(cl, cfg, spec, k)
	})
	return e.makespan, append([]float64(nil), e.perQuery...), e.joules, e.err
}

// fingerprint is the content key: concurrency level, effective engine
// configuration, the full join spec, and every node's hardware spec in
// cluster order, each rendered with %#v. Go-syntax formatting prints
// every field, and an interface field (a node's power model) as its
// concrete type and value; it never calls String, so a Stringer that
// omits a field (PowerLaw.Floor) cannot merge two keys. Every hw power
// model is a value struct. A pointer-typed one would render as its
// address: a conservative miss, never a collision. The key is built in a
// bytes.Buffer, whose String copies, so a stored key is exact-size
// instead of pinning the buffer's grown capacity.
func fingerprint(c *cluster.Cluster, cfg Config, spec JoinSpec, k int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "k=%d|cfg=%#v|spec=%#v|nodes=%d", k, cfg.withDefaults(), spec, len(c.Nodes))
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "|%#v", n.Spec)
	}
	return b.String()
}
