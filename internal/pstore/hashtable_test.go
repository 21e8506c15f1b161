package pstore

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// mapHashTable is the pre-open-addressing reference implementation: the
// build-side multiset on map[int64]int64, kept here as the oracle for
// the Int64Table-backed hashTable.
type mapHashTable struct {
	counts map[int64]int64
	rows   int64
	bytes  float64
}

func (h *mapHashTable) insertBatch(b storage.Batch) {
	h.rows += int64(b.Rows)
	h.bytes += b.Bytes()
	if b.Phantom() {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	for _, k := range b.Cols[storage.ColKey] {
		h.counts[k]++
	}
}

func (h *mapHashTable) probeBatch(b storage.Batch, matchRate float64, fracAcc *float64) (int64, uint64) {
	if b.Phantom() {
		*fracAcc += float64(b.Rows) * matchRate
		out := int64(*fracAcc)
		*fracAcc -= float64(out)
		return out, 0
	}
	var matches int64
	var sum uint64
	for _, k := range b.Cols[storage.ColKey] {
		if c := h.counts[k]; c > 0 {
			matches += c
			sum += uint64(k) * uint64(c)
		}
	}
	return matches, sum
}

func randBatch(rng *rand.Rand, rows int, phantom bool) storage.Batch {
	b := storage.Batch{Rows: rows, Width: 20}
	if phantom {
		return b
	}
	keys := make(storage.Int64Column, rows)
	for i := range keys {
		keys[i] = int64(rng.Intn(500))
	}
	b.Cols = []storage.Int64Column{keys}
	return b
}

// TestHashTableMatchesMapImplementation feeds identical random batch
// streams — materialized and phantom, mixed — through the open-addressing
// hashTable and the map reference, requiring identical build totals,
// probe matches, checksums and phantom fractional accounting.
func TestHashTableMatchesMapImplementation(t *testing.T) {
	for _, phantom := range []bool{false, true} {
		rng := rand.New(rand.NewSource(99))
		ht := &hashTable{hint: 64}
		ref := &mapHashTable{}
		for i := 0; i < 40; i++ {
			b := randBatch(rng, 1+rng.Intn(400), phantom)
			ht.insertBatch(b)
			ref.insertBatch(b)
		}
		if ht.rows != ref.rows || ht.bytes != ref.bytes {
			t.Fatalf("phantom=%v: build totals (%d, %g) != reference (%d, %g)",
				phantom, ht.rows, ht.bytes, ref.rows, ref.bytes)
		}
		var fracHT, fracRef float64
		for i := 0; i < 40; i++ {
			b := randBatch(rng, 1+rng.Intn(400), phantom)
			m1, s1 := ht.probeBatch(b, 0.3, &fracHT)
			m2, s2 := ref.probeBatch(b, 0.3, &fracRef)
			if m1 != m2 || s1 != s2 {
				t.Fatalf("phantom=%v probe %d: (%d, %d) != reference (%d, %d)",
					phantom, i, m1, s1, m2, s2)
			}
		}
		if fracHT != fracRef {
			t.Fatalf("phantom=%v: fractional accumulators diverged: %g vs %g", phantom, fracHT, fracRef)
		}
	}
}

// TestProbeOnEmptyHashTable: a build node that never received a batch
// (nothing qualified or routed to it) has a nil table; probing it must
// miss cleanly, as the nil-map read did before Int64Table. Regression
// test for a nil-pointer panic in probeBatch.
func TestProbeOnEmptyHashTable(t *testing.T) {
	ht := &hashTable{hint: 16}
	rng := rand.New(rand.NewSource(5))
	var frac float64
	m, s := ht.probeBatch(randBatch(rng, 100, false), 0.5, &frac)
	if m != 0 || s != 0 {
		t.Fatalf("probe on empty table = (%d, %d), want (0, 0)", m, s)
	}
}
