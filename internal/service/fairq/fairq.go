// Package fairq is the deterministic multi-tenant scheduling core of the
// service plane: per-tenant FIFO queues in two priority bands, drained
// by deficit round-robin (DRR). It is a pure data structure — no locks,
// no goroutines, no clocks — so its drain order is a function of the
// push/pop sequence alone: the same request script always dequeues in
// the same order, which is what the starvation tests (and repro-vet's
// nodeterm analyzer, which covers this package) pin down.
//
// Scheduling rules, in priority order:
//
//  1. Bands are strict: while any high-band item is queued, the low
//     band is not served.
//  2. Within a band, tenants take turns in activation order (the order
//     their queues last became non-empty), each serving up to its DRR
//     quantum (its configured weight) per round before yielding. With
//     unit-cost items this is weighted round-robin. A tenant whose
//     queue empties mid-round forfeits its leftover credit.
//
// The caller provides synchronization (internal/service holds its own
// mutex) and decides admission; fairq only orders what was admitted.
// EvictLow supports the service's shed-low-before-high rule: a full
// tenant queue can displace its newest low-band item to admit a
// high-band one.
package fairq

// Queue is a two-band multi-tenant DRR queue. Not safe for concurrent
// use. Create with New.
type Queue[T any] struct {
	quantum func(tenant string) int
	tenants map[string]*tenantQ[T]
	bands   [2]band[T] // [0] high, [1] low
	queued  int
}

type band[T any] struct {
	ring []string // active tenants, activation order; served at cur
	cur  int
}

type tenantQ[T any] struct {
	deficit [2]int
	items   [2][]T // FIFO per band: append at tail, pop at head
}

const (
	// High and Low name the two bands for Push.
	High = 0
	Low  = 1
)

// New builds a Queue. quantum maps a tenant name to its DRR weight —
// how many items it may dequeue per round before the next tenant is
// served; results < 1 are treated as 1. nil means every tenant weighs 1.
func New[T any](quantum func(tenant string) int) *Queue[T] {
	if quantum == nil {
		quantum = func(string) int { return 1 }
	}
	return &Queue[T]{quantum: quantum, tenants: make(map[string]*tenantQ[T])}
}

// Len is the total number of queued items across tenants and bands.
func (q *Queue[T]) Len() int { return q.queued }

// TenantLen is the number of queued items for one tenant, both bands —
// the quantity the service's per-tenant admission quota caps.
func (q *Queue[T]) TenantLen(tenant string) int {
	t := q.tenants[tenant]
	if t == nil {
		return 0
	}
	return len(t.items[High]) + len(t.items[Low])
}

// LowLen is the number of queued low-band items for one tenant.
func (q *Queue[T]) LowLen(tenant string) int {
	t := q.tenants[tenant]
	if t == nil {
		return 0
	}
	return len(t.items[Low])
}

// Push enqueues v for tenant in the given band (High or Low).
func (q *Queue[T]) Push(tenant string, bandIdx int, v T) {
	t := q.tenants[tenant]
	if t == nil {
		t = &tenantQ[T]{}
		q.tenants[tenant] = t
	}
	if len(t.items[bandIdx]) == 0 {
		q.bands[bandIdx].ring = append(q.bands[bandIdx].ring, tenant)
	}
	t.items[bandIdx] = append(t.items[bandIdx], v)
	q.queued++
}

// Pop dequeues the next item under the scheduling rules, or reports
// false when the queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	for bandIdx := range q.bands {
		if v, ok := q.popBand(bandIdx); ok {
			return v, true
		}
	}
	var zero T
	return zero, false
}

func (q *Queue[T]) popBand(bandIdx int) (T, bool) {
	b := &q.bands[bandIdx]
	if len(b.ring) == 0 {
		var zero T
		return zero, false
	}
	if b.cur >= len(b.ring) {
		b.cur = 0
	}
	name := b.ring[b.cur]
	t := q.tenants[name]
	if t.deficit[bandIdx] <= 0 {
		// New round for this tenant: refill its credit. The queue is
		// non-empty (it is in the ring), so one refill always serves at
		// least one item — no spin — and a weight below 1 serves exactly
		// one. A weight of at least 1 spends its credit to exactly 0, so
		// the refill replaces nothing.
		t.deficit[bandIdx] = q.quantum(name)
	}
	t.deficit[bandIdx]--
	v := t.items[bandIdx][0]
	var zero T
	t.items[bandIdx][0] = zero // release the reference
	t.items[bandIdx] = t.items[bandIdx][1:]
	q.queued--
	if len(t.items[bandIdx]) == 0 {
		// Queue drained: leave the ring and forfeit leftover credit, so
		// a tenant cannot bank idle rounds into a later burst.
		t.deficit[bandIdx] = 0
		b.ring = append(b.ring[:b.cur], b.ring[b.cur+1:]...)
		if b.cur >= len(b.ring) {
			b.cur = 0
		}
	} else if t.deficit[bandIdx] <= 0 {
		b.cur++
		if b.cur >= len(b.ring) {
			b.cur = 0
		}
	}
	return v, true
}

// EvictLow removes and returns tenant's newest low-band item — the one
// that sank the least waiting time — so the service can displace queued
// low-priority work to admit high-priority work when the tenant's
// waiting room is full. Reports false if the tenant has no low-band
// items.
func (q *Queue[T]) EvictLow(tenant string) (T, bool) {
	t := q.tenants[tenant]
	var zero T
	if t == nil || len(t.items[Low]) == 0 {
		return zero, false
	}
	last := len(t.items[Low]) - 1
	v := t.items[Low][last]
	t.items[Low][last] = zero
	t.items[Low] = t.items[Low][:last]
	q.queued--
	if last == 0 {
		t.deficit[Low] = 0
		b := &q.bands[Low]
		for i, name := range b.ring {
			if name == tenant {
				b.ring = append(b.ring[:i], b.ring[i+1:]...)
				if i < b.cur {
					b.cur--
				}
				if b.cur >= len(b.ring) {
					b.cur = 0
				}
				break
			}
		}
	}
	return v, true
}
