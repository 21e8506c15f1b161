package fairq

import (
	"fmt"
	"testing"
)

func drain[T any](q *Queue[T]) []T {
	var out []T
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func eq(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v (first diff at %d)", got, want, i)
		}
	}
}

// TestDRRAlternatesEqualWeights: a flooding tenant and a trickling
// tenant with equal weights alternate strictly — the hot tenant can
// never put two items between two of the quiet tenant's.
func TestDRRAlternatesEqualWeights(t *testing.T) {
	q := New[string](nil)
	for i := 0; i < 4; i++ {
		q.Push("hot", High, fmt.Sprintf("h%d", i))
	}
	q.Push("quiet", High, "q0")
	q.Push("quiet", High, "q1")
	eq(t, drain(q), "h0", "q0", "h1", "q1", "h2", "h3")
}

// TestDRRWeights: weight 2 serves two items per round against weight 1.
func TestDRRWeights(t *testing.T) {
	weights := map[string]int{"a": 2, "b": 1}
	q := New[string](func(tenant string) int { return weights[tenant] })
	for i := 0; i < 4; i++ {
		q.Push("a", High, fmt.Sprintf("a%d", i))
		q.Push("b", High, fmt.Sprintf("b%d", i))
	}
	eq(t, drain(q), "a0", "a1", "b0", "a2", "a3", "b1", "b2", "b3")
}

// TestBandsAreStrict: every high-band item drains before any low-band
// item, regardless of tenant or arrival order.
func TestBandsAreStrict(t *testing.T) {
	q := New[string](nil)
	q.Push("a", Low, "aL")
	q.Push("b", Low, "bL")
	q.Push("b", High, "bH")
	q.Push("a", High, "aH")
	eq(t, drain(q), "bH", "aH", "aL", "bL")
}

// TestActivationOrderIsDeterministic: ring order follows the order
// queues became non-empty, and a drained tenant re-activates at the
// tail — replaying the same script replays the same drain order.
func TestActivationOrderIsDeterministic(t *testing.T) {
	for run := 0; run < 3; run++ {
		q := New[string](nil)
		q.Push("b", High, "b0")
		q.Push("a", High, "a0")
		if v, _ := q.Pop(); v != "b0" {
			t.Fatalf("run %d: first pop %q, want b0 (activation order)", run, v)
		}
		q.Push("b", High, "b1") // b drained? no — b is empty now, re-activates after a
		eq(t, drain(q), "a0", "b1")
	}
}

// TestEvictLowTakesNewest: eviction removes the newest low item of the
// named tenant only, and empties clean up the ring.
func TestEvictLowTakesNewest(t *testing.T) {
	q := New[string](nil)
	q.Push("a", Low, "a0")
	q.Push("a", Low, "a1")
	q.Push("b", Low, "b0")
	v, ok := q.EvictLow("a")
	if !ok || v != "a1" {
		t.Fatalf("EvictLow = %q, %v; want a1", v, ok)
	}
	if _, ok := q.EvictLow("none"); ok {
		t.Fatal("evicted from a tenant with no low items")
	}
	if q.Len() != 2 || q.TenantLen("a") != 1 || q.LowLen("a") != 1 {
		t.Fatalf("lengths after evict: total=%d a=%d aLow=%d", q.Len(), q.TenantLen("a"), q.LowLen("a"))
	}
	eq(t, drain(q), "a0", "b0")
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestEvictLastLowRemovesFromRing: evicting a tenant's only low item
// removes it from the low ring without disturbing other tenants' turns.
func TestEvictLastLowRemovesFromRing(t *testing.T) {
	q := New[string](nil)
	q.Push("a", Low, "a0")
	q.Push("b", Low, "b0")
	q.Push("c", Low, "c0")
	if v, ok := q.EvictLow("a"); !ok || v != "a0" {
		t.Fatalf("EvictLow(a) = %q, %v", v, ok)
	}
	eq(t, drain(q), "b0", "c0")
}

// TestLengthsTrackPushPop: the counters the admission quota reads stay
// exact across interleaved operations.
func TestLengthsTrackPushPop(t *testing.T) {
	q := New[int](nil)
	q.Push("t", High, 1)
	q.Push("t", Low, 2)
	q.Push("u", High, 3)
	if q.Len() != 3 || q.TenantLen("t") != 2 || q.LowLen("t") != 1 || q.TenantLen("u") != 1 {
		t.Fatalf("lengths: %d %d %d %d", q.Len(), q.TenantLen("t"), q.LowLen("t"), q.TenantLen("u"))
	}
	q.Pop()
	q.Pop()
	q.Pop()
	if q.Len() != 0 || q.TenantLen("t") != 0 || q.TenantLen("u") != 0 {
		t.Fatalf("lengths after drain: %d %d %d", q.Len(), q.TenantLen("t"), q.TenantLen("u"))
	}
}

// refQueue is the scheduling rules written out as plainly as possible,
// the oracle FuzzFairQueue compares Queue with: per-tenant FIFOs in two
// strict bands; in a band, tenants take turns in the order they last
// became non-empty, a turn serving up to the tenant's weight (at least
// one) items and ending early, its credit lost, when the tenant runs
// out; EvictLow takes a tenant's newest low-band item.
type refQueue struct {
	weight func(string) int
	fifo   [2]map[string][]int
	order  [2][]string // tenants with items, in activation order
	turn   [2]int      // index in order of the tenant whose turn it is
	left   [2]int      // items left in that turn; 0: not yet started
}

func (r *refQueue) push(tenant string, band, v int) {
	if len(r.fifo[band][tenant]) == 0 {
		r.order[band] = append(r.order[band], tenant)
	}
	r.fifo[band][tenant] = append(r.fifo[band][tenant], v)
}

// leave drops order[band][i], whose FIFO is empty, keeping the turn with
// the tenant it was on, or passing it to the next one if it was i's.
func (r *refQueue) leave(band, i int) {
	r.order[band] = append(r.order[band][:i:i], r.order[band][i+1:]...)
	switch {
	case i < r.turn[band]:
		r.turn[band]--
	case i == r.turn[band]:
		r.left[band] = 0
	}
	if r.turn[band] >= len(r.order[band]) {
		r.turn[band] = 0
	}
}

func (r *refQueue) pop() (int, bool) {
	for band := range r.order {
		if len(r.order[band]) == 0 {
			continue
		}
		tenant := r.order[band][r.turn[band]]
		if r.left[band] == 0 {
			r.left[band] = max(r.weight(tenant), 1)
		}
		v := r.fifo[band][tenant][0]
		r.fifo[band][tenant] = r.fifo[band][tenant][1:]
		if r.left[band]--; len(r.fifo[band][tenant]) == 0 {
			r.leave(band, r.turn[band])
		} else if r.left[band] == 0 {
			r.turn[band] = (r.turn[band] + 1) % len(r.order[band])
		}
		return v, true
	}
	return 0, false
}

func (r *refQueue) evictLow(tenant string) (int, bool) {
	q := r.fifo[Low][tenant]
	if len(q) == 0 {
		return 0, false
	}
	v := q[len(q)-1]
	if r.fifo[Low][tenant] = q[:len(q)-1]; len(q) == 1 {
		for i, name := range r.order[Low] {
			if name == tenant {
				r.leave(Low, i)
				break
			}
		}
	}
	return v, true
}

// FuzzFairQueue runs a random script of Push, Pop and EvictLow over four
// tenants, both bands and random weights (some below one) against
// refQueue: every Pop and EvictLow must return the reference's item, and
// Len, TenantLen and LowLen its counts, after every operation.
func FuzzFairQueue(f *testing.F) {
	f.Add(uint16(0x2131), []byte{0x00, 0x04, 0x08, 0x01, 0x01, 0x11, 0x12, 0x01})
	f.Add(uint16(0xF0F0), []byte("push pop evict push push pop pop evict"))
	f.Add(uint16(0), []byte{0x10, 0x14, 0x18, 0x1C, 0x16, 0x01, 0x11, 0x01, 0x01, 0x01})
	// Found by fuzzing: an eviction that empties a tenant ahead of the
	// turn in the low ring, and a tenant that drains mid-turn and comes
	// back with its lost credit.
	f.Add(uint16(43), []byte("00\xff1\xdc1071.1"))
	f.Add(uint16(61740), []byte(",,,(11(1C1,,11C11"))
	tenants := []string{"a", "b", "c", "d"}
	f.Fuzz(func(t *testing.T, weights uint16, script []byte) {
		weight := func(tenant string) int { // -1 to 2: weights below one count as one
			return int(weights>>(4*(tenant[0]-'a'))&3) - 1
		}
		q := New[int](weight)
		ref := &refQueue{weight: weight, fifo: [2]map[string][]int{{}, {}}}
		for step, op := range script {
			tenant, band := tenants[op>>2&3], int(op>>4&1)
			switch op & 3 {
			case 0, 3: // push: half of all operations
				q.Push(tenant, band, step)
				ref.push(tenant, band, step)
			case 1:
				got, ok := q.Pop()
				want, wantOK := ref.pop()
				if got != want || ok != wantOK {
					t.Fatalf("step %d: Pop = %d, %v; reference %d, %v", step, got, ok, want, wantOK)
				}
			case 2:
				got, ok := q.EvictLow(tenant)
				want, wantOK := ref.evictLow(tenant)
				if got != want || ok != wantOK {
					t.Fatalf("step %d: EvictLow(%s) = %d, %v; reference %d, %v", step, tenant, got, ok, want, wantOK)
				}
			}
			total := 0
			for _, name := range tenants {
				high, low := len(ref.fifo[High][name]), len(ref.fifo[Low][name])
				if q.TenantLen(name) != high+low || q.LowLen(name) != low {
					t.Fatalf("step %d: tenant %s holds %d items, %d low; reference %d, %d", step, name, q.TenantLen(name), q.LowLen(name), high+low, low)
				}
				total += high + low
			}
			if q.Len() != total {
				t.Fatalf("step %d: Len %d, reference %d", step, q.Len(), total)
			}
		}
	})
}
