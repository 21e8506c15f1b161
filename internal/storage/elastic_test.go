package storage

import (
	"testing"

	"repro/internal/tpch"
)

func elasticDef(homes int, mat bool) TableDef {
	return TableDef{Table: tpch.Orders, SF: 0.01, Width: tpch.Q3ProjectedWidth,
		Placement: HashSegmented, SegmentColumn: "O_CUSTKEY",
		Materialize: mat, HomeNodes: homes}
}

func TestElasticConservesRows(t *testing.T) {
	for _, n := range []int{4, 5, 6, 8} {
		for _, mat := range []bool{true, false} {
			def := elasticDef(8, mat)
			parts, err := PartitionTable(def, n, 512)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, p := range parts {
				sum += p.Rows
			}
			if sum != def.TotalRows() {
				t.Fatalf("n=%d mat=%v: rows %d != %d", n, mat, sum, def.TotalRows())
			}
		}
	}
}

func TestElasticBalancedWhenDivisible(t *testing.T) {
	// 8 home partitions on 4 online nodes: everyone adopts exactly one
	// extra partition — balanced.
	def := elasticDef(8, false)
	parts, _ := PartitionTable(def, 4, 512)
	min, max := parts[0].Rows, parts[0].Rows
	for _, p := range parts {
		if p.Rows < min {
			min = p.Rows
		}
		if p.Rows > max {
			max = p.Rows
		}
	}
	if max-min > 1 {
		t.Fatalf("divisible adoption imbalanced: min=%d max=%d", min, max)
	}
}

func TestElasticStairStepWhenIndivisible(t *testing.T) {
	// 8 home partitions on 6 online nodes: two nodes serve two partitions
	// while four serve one — a 2:1 load imbalance that repartitioning
	// would not have.
	def := elasticDef(8, false)
	parts, _ := PartitionTable(def, 6, 512)
	var doubled, single int
	per := def.TotalRows() / 8
	for _, p := range parts {
		switch {
		case p.Rows > per+per/2:
			doubled++
		default:
			single++
		}
	}
	if doubled != 2 || single != 4 {
		t.Fatalf("adoption pattern wrong: %d doubled, %d single (want 2/4)", doubled, single)
	}
}

func TestElasticMatchesNativeAtFullSize(t *testing.T) {
	// HomeNodes == n must be identical to native partitioning.
	native, _ := PartitionTable(elasticDef(0, false), 8, 512)
	elastic, _ := PartitionTable(elasticDef(8, false), 8, 512)
	for i := range native {
		if native[i].Rows != elastic[i].Rows {
			t.Fatalf("node %d: native %d vs elastic %d", i, native[i].Rows, elastic[i].Rows)
		}
	}
}

func TestElasticAdoptionRoutesByHomeHash(t *testing.T) {
	// Materialized: every row on online node j must satisfy
	// (hash(key) % homes) % n == j. The segmentation key O_CUSTKEY is not
	// stored: recompute it from the stored O_ORDERKEY (row index + 1).
	def := elasticDef(8, true)
	n := 5
	parts, _ := PartitionTable(def, n, 512)
	for _, p := range parts {
		for _, b := range p.Batches(512) {
			for _, key := range b.Cols[ColKey] {
				cust := tpch.GenOrder(def.SF, key-1).CustKey
				h := int(tpch.Hash64(uint64(cust)) % 8)
				if h%n != p.Node {
					t.Fatalf("row with home %d on node %d (want %d)", h, p.Node, h%n)
				}
			}
		}
	}
}
