package pstore

import (
	"repro/internal/storage"
	"repro/internal/tpch"
)

// ReferenceJoin computes the exact expected output of a filtered
// equi-join by serial brute force over the generated data. Tests compare
// the parallel engine's output rows and checksum against it — the
// "correctness oracle" for every execution strategy.
func ReferenceJoin(build, probe storage.TableDef, buildSel, probeSel float64) (rows int64, checksum uint64) {
	bThr := tpch.SelThreshold(buildSel)
	pThr := tpch.SelThreshold(probeSel)

	counts := make(map[int64]int64)
	nB := build.TotalRows()
	for i := int64(0); i < nB; i++ {
		key, sel := refRow(build, i)
		if sel < bThr {
			counts[key]++
		}
	}
	nP := probe.TotalRows()
	for i := int64(0); i < nP; i++ {
		key, sel := refRow(probe, i)
		if sel < pThr {
			if c := counts[key]; c > 0 {
				rows += c
				checksum += uint64(key) * uint64(c)
			}
		}
	}
	return rows, checksum
}

// refRow returns (join key, selectivity column) for row i of a table
// from the row-at-a-time tpch.Gen* generators — the oracle the columnar
// loader behind storage.PartitionTable is tested against.
func refRow(def storage.TableDef, i int64) (key, sel int64) {
	switch def.Table {
	case tpch.Lineitem:
		r := tpch.GenLineitem(def.SF, i)
		return r.OrderKey, r.SelCol
	case tpch.Orders:
		r := tpch.GenOrder(def.SF, i)
		return r.OrderKey, r.SelCol
	case tpch.Customer:
		r := tpch.GenCustomer(def.SF, i)
		return r.CustKey, r.SelCol
	case tpch.Supplier:
		r := tpch.GenSupplier(def.SF, i)
		return r.SuppKey, r.SelCol
	default:
		return i, 0
	}
}
