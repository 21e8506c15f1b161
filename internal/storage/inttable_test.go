package storage

import (
	"math/rand"
	"testing"

	"repro/internal/tpch"
)

// TestInt64TableMatchesMap is the behavioural parity property: under
// random interleaved Add/Get over a key space with many repeats —
// including zero and negative keys — the open-addressing table must
// agree with map[int64]int64 exactly.
func TestInt64TableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewInt64Table(0) // force growth along the way
	ref := map[int64]int64{}
	for op := 0; op < 50_000; op++ {
		key := int64(rng.Intn(2000)) - 1000 // hits zero and negatives
		if rng.Intn(2) == 0 {
			delta := int64(rng.Intn(5)) + 1
			tbl.Add(key, delta)
			ref[key] += delta
		} else if got, want := tbl.Get(key), ref[key]; got != want {
			t.Fatalf("op %d: Get(%d) = %d, want %d", op, key, got, want)
		}
	}
	for k, want := range ref {
		if got := tbl.Get(k); got != want {
			t.Fatalf("final Get(%d) = %d, want %d", k, got, want)
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
	}
}

// TestInt64TableCollisionCluster inserts keys engineered to land on the
// same initial slot of a small table, forcing long linear-probe chains
// through the cluster; every key must stay retrievable, including after
// the cluster is broken up by growth.
func TestInt64TableCollisionCluster(t *testing.T) {
	tbl := NewInt64Table(0) // capacity 16, mask 15
	var cluster []int64
	for k := int64(1); len(cluster) < 40; k++ {
		if tpch.Hash64(uint64(k))&15 == 7 {
			cluster = append(cluster, k)
		}
	}
	for i, k := range cluster {
		tbl.Add(k, int64(i)+1)
	}
	for i, k := range cluster {
		if got := tbl.Get(k); got != int64(i)+1 {
			t.Fatalf("Get(%d) = %d, want %d", k, got, i+1)
		}
	}
	if tbl.Len() != len(cluster) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(cluster))
	}
	// Absent keys that hash into the cluster must still miss.
	for k := int64(1); ; k++ {
		if tpch.Hash64(uint64(k))&15 != 7 {
			continue
		}
		found := false
		for _, c := range cluster {
			if c == k {
				found = true
				break
			}
		}
		if !found {
			if got := tbl.Get(k); got != 0 {
				t.Fatalf("Get(absent %d) = %d, want 0", k, got)
			}
			break
		}
	}
}

// TestInt64TableGrowth pushes far past any initial sizing and checks
// contents survive repeated rehashes; a generous hint must avoid the
// growth path entirely while producing the same answers.
func TestInt64TableGrowth(t *testing.T) {
	const n = 100_000
	small, big := NewInt64Table(0), NewInt64Table(n)
	for i := int64(0); i < n; i++ {
		small.Add(i*7, i)
		big.Add(i*7, i)
	}
	if small.Len() != n || big.Len() != n {
		t.Fatalf("Len = %d/%d, want %d", small.Len(), big.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if got := small.Get(i * 7); got != i {
			t.Fatalf("small.Get(%d) = %d, want %d", i*7, got, i)
		}
		if got := big.Get(i * 7); got != i {
			t.Fatalf("big.Get(%d) = %d, want %d", i*7, got, i)
		}
	}
}
