package pstore

// Dimension semijoins: the Q21-style plan shape of Section 3.1, where
// small tables (SUPPLIER, NATION) are replicated on every node and joined
// locally, so only the big LINEITEM⋈ORDERS join needs the network. Each
// DimJoin filters probe tuples against a selective replicated dimension
// before they enter the exchange, exactly like Vertica's local joins with
// replicated tables: extra node-local CPU, zero extra network.

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// DimJoin is one replicated-dimension semijoin applied to the probe side.
type DimJoin struct {
	// Dim is the replicated dimension table (e.g. SUPPLIER).
	Dim storage.TableDef
	// Sel is the predicate selectivity on the dimension.
	Sel float64
	// KeyCol is the stored probe column carrying the dimension foreign
	// key. LINEITEM's storage.LineitemColSupp, for the LINEITEM->SUPPLIER
	// edge, is the only one stored; JoinSpec.Validate rejects any other.
	KeyCol int
	// Work is extra CPU bytes charged per probe byte evaluated (default 1).
	Work float64
}

func (d DimJoin) work() float64 {
	if d.Work == 0 {
		return 1.0
	}
	return d.Work
}

// Validate checks the dimension spec.
func (d DimJoin) Validate() error {
	if !(d.Sel > 0 && d.Sel <= 1) { // rejects NaN
		return fmt.Errorf("pstore: dimension selectivity %v out of (0,1]", d.Sel)
	}
	if d.Dim.Placement != storage.Replicated {
		return fmt.Errorf("pstore: dimension %s must be replicated", d.Dim.Table)
	}
	return nil
}

// probeCols returns the probe scan's projection: the join key, plus
// every foreign key a dimension filter reads behind it.
func probeCols(dims []DimJoin) int {
	cols := keyCols
	for _, d := range dims {
		cols = max(cols, d.KeyCol+1)
	}
	return cols
}

// dimFilter is the runtime form: a qualifying-key set (materialized runs)
// plus the selectivity for phantom accounting.
type dimFilter struct {
	spec    DimJoin
	qualify *storage.Int64Table // nil for phantom runs; shared read-only
	frac    float64             // fractional-row accumulator (phantom)
}

// newDimFilters constructs the query's dimension filters once, at launch:
// the qualifying-key tables are identical on every node (the dimension
// is replicated), so the probe scanners share them and each takes its
// own copy of the slice for the per-node frac accumulators. buildBytes
// is what every scanning node's CPU is charged for hashing its
// dimension copies (local work, no exchange).
func newDimFilters(dims []DimJoin, materialized bool) (filters []dimFilter, buildBytes float64) {
	for _, d := range dims {
		f := dimFilter{spec: d}
		if materialized {
			thr := tpch.SelThreshold(d.Sel)
			n := d.Dim.TotalRows()
			f.qualify = storage.NewInt64Table(int(float64(n) * d.Sel))
			for i := int64(0); i < n; i++ {
				key, sel := refRow(d.Dim, i)
				if sel < thr {
					f.qualify.Add(key, 1)
				}
			}
		}
		filters = append(filters, f)
		buildBytes += d.Dim.TotalBytes()
	}
	return filters, buildBytes
}

// dimFilterCursor chains the replicated-dimension semijoins onto a probe
// cursor: every pulled batch flows through all dimension filters before
// it emerges, so rows eliminated by a selective dimension never reach
// the exchange. Materialized batches are filtered on one shared
// survivor row-index list narrowed per dimension, and only the join key
// is gathered at the end: nothing downstream reads the foreign keys.
// The CPU charge per dimension is unchanged (surviving rows x width x
// per-dimension work), so timing is byte-identical; only the
// intermediate column copies disappear.
type dimFilterCursor struct {
	in      storage.Cursor
	p       *sim.Proc
	cpu     *sim.Server
	filters []dimFilter
	idx     []int // shared survivor scratch, reused across batches
}

var _ storage.Cursor = (*dimFilterCursor)(nil)

// Next yields the next batch with at least one surviving row.
func (c *dimFilterCursor) Next() (storage.Batch, bool) {
	for {
		b, ok := c.in.Next()
		if !ok {
			return storage.Batch{}, false
		}
		b = c.apply(b)
		if b.Rows > 0 {
			return b, true
		}
	}
}

// RowHint scales the input's hint by every dimension's selectivity —
// the pushdown rule that lets downstream buffers pre-size for the
// post-semijoin cardinality.
func (c *dimFilterCursor) RowHint() (int64, bool) {
	rows, ok := c.in.RowHint()
	if !ok {
		return 0, false
	}
	est := float64(rows)
	for _, f := range c.filters {
		est *= f.spec.Sel
	}
	return int64(est), true
}

// Close terminates the chain, closing the underlying probe cursor.
func (c *dimFilterCursor) Close() {
	c.in.Close()
	c.filters = nil
}

// apply filters one batch through every dimension semijoin, charging the
// node's CPU for the evaluation work, and returns the surviving rows.
func (c *dimFilterCursor) apply(b storage.Batch) storage.Batch {
	if b.Phantom() {
		for i := range c.filters {
			f := &c.filters[i]
			if b.Rows == 0 {
				return b
			}
			c.cpu.Process(c.p, b.Bytes()*f.spec.work())
			f.frac += float64(b.Rows) * f.spec.Sel
			take := int(f.frac)
			f.frac -= float64(take)
			b = storage.Batch{Rows: take, Width: b.Width}
		}
		return b
	}
	// Materialized: narrow the survivor list per dimension over the
	// ORIGINAL batch's columns; gather the key once at the end.
	keys := storage.Batch{Rows: b.Rows, Width: b.Width, Cols: b.Cols[:keyCols]}
	rows := b.Rows
	c.idx = c.idx[:0]
	first := true
	for _, f := range c.filters {
		if rows == 0 {
			break
		}
		c.cpu.Process(c.p, float64(rows)*float64(b.Width)*f.spec.work())
		col := b.Cols[f.spec.KeyCol]
		if first {
			for i, k := range col {
				if f.qualify.Get(k) != 0 {
					c.idx = append(c.idx, i)
				}
			}
			first = false
		} else {
			kept := c.idx[:0]
			for _, i := range c.idx {
				if f.qualify.Get(col[i]) != 0 {
					kept = append(kept, i)
				}
			}
			c.idx = kept
		}
		rows = len(c.idx)
	}
	if first {
		return keys // no filters configured: pass the key through
	}
	return storage.FilterBatch(keys, c.idx)
}

// SupplierDim returns the standard Q21-style SUPPLIER dimension semijoin
// at the given selectivity (replicated, 16-byte projection).
func SupplierDim(sf tpch.ScaleFactor, sel float64, materialize bool) DimJoin {
	return DimJoin{
		Dim: storage.TableDef{
			Table: tpch.Supplier, SF: sf, Width: 16,
			Placement: storage.Replicated, Materialize: materialize,
		},
		Sel:    sel,
		KeyCol: storage.LineitemColSupp,
	}
}

// ReferenceJoinWithDims extends ReferenceJoin with dimension semijoins on
// the probe side (the verification oracle for Q21-style plans).
func ReferenceJoinWithDims(build, probe storage.TableDef, buildSel, probeSel float64, dims []DimJoin) (rows int64, checksum uint64) {
	bThr := tpch.SelThreshold(buildSel)
	pThr := tpch.SelThreshold(probeSel)

	qual := make([]map[int64]bool, len(dims))
	for di, d := range dims {
		qual[di] = make(map[int64]bool)
		thr := tpch.SelThreshold(d.Sel)
		n := d.Dim.TotalRows()
		for i := int64(0); i < n; i++ {
			key, sel := refRow(d.Dim, i)
			if sel < thr {
				qual[di][key] = true
			}
		}
	}

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
		li := tpch.GenLineitem(probe.SF, i)
		if probe.SkewTheta > 0 {
			li = tpch.GenLineitemSkewed(probe.SF, i, probe.SkewTheta)
		}
		if li.SelCol >= pThr {
			continue
		}
		pass := true
		for di := range dims {
			// Only the SUPPLIER edge is wired for reference checking.
			if !qual[di][li.SuppKey] {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		if c := counts[li.OrderKey]; c > 0 {
			rows += c
			checksum += uint64(li.OrderKey) * uint64(c)
		}
	}
	return rows, checksum
}
