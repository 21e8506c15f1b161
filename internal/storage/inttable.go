package storage

import "repro/internal/tpch"

// Int64Table is an open-addressing hash table from int64 keys to int64
// counts, the build/probe structure of the hash-join operators. Compared
// to map[int64]int64 it stores keys and values in two flat power-of-two
// arrays probed linearly, so a probe is one hash, one masked index and a
// short forward scan over adjacent memory — no per-bucket pointers, no
// tophash recheck, and zero allocation after construction (growth aside).
//
// The empty slot marker is key 0; a real key 0 is carried in a dedicated
// side slot, so the full int64 domain is supported.
type Int64Table struct {
	keys []int64 // 0 = empty slot
	vals []int64
	mask uint64
	n    int // occupied slots, excluding the zero-key side slot

	zeroVal int64
	hasZero bool
}

// NewInt64Table returns a table pre-sized to hold hint entries without
// growing. A hint <= 0 picks the minimum size.
func NewInt64Table(hint int) *Int64Table {
	capacity := 16
	// Size so hint entries stay under the 3/4 load-factor bound.
	for capacity*3/4 < hint {
		capacity *= 2
	}
	return &Int64Table{
		keys: make([]int64, capacity),
		vals: make([]int64, capacity),
		mask: uint64(capacity - 1),
	}
}

// Int64TableReservedBytes returns the bytes NewInt64Table(hint) would
// pin, without allocating: the power-of-two capacity that keeps hint
// entries under the 3/4 load-factor bound, times 16 bytes per slot.
func Int64TableReservedBytes(hint int) float64 {
	capacity := 16
	for capacity*3/4 < hint {
		capacity *= 2
	}
	return float64(capacity) * 16
}

// Len returns the number of distinct keys stored.
func (t *Int64Table) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Add adds delta to key's count (inserting the key if absent).
func (t *Int64Table) Add(key, delta int64) {
	if key == 0 {
		t.zeroVal += delta
		t.hasZero = true
		return
	}
	i := tpch.Hash64(uint64(key)) & t.mask
	for {
		switch t.keys[i] {
		case key:
			t.vals[i] += delta
			return
		case 0:
			if t.n >= len(t.keys)*3/4 {
				t.grow()
				t.Add(key, delta)
				return
			}
			t.keys[i] = key
			t.vals[i] = delta
			t.n++
			return
		}
		i = (i + 1) & t.mask
	}
}

// Get returns key's count, or 0 when the key is absent.
func (t *Int64Table) Get(key int64) int64 {
	if key == 0 {
		return t.zeroVal
	}
	i := tpch.Hash64(uint64(key)) & t.mask
	for {
		switch t.keys[i] {
		case key:
			return t.vals[i]
		case 0:
			return 0
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles capacity and rehashes every occupied slot.
func (t *Int64Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	capacity := 2 * len(oldKeys)
	t.keys = make([]int64, capacity)
	t.vals = make([]int64, capacity)
	t.mask = uint64(capacity - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := tpch.Hash64(uint64(k)) & t.mask
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}
