// Package tpch is a deterministic, stdlib-only synthetic generator for
// the subset of the TPC-H schema the paper's experiments use: LINEITEM,
// ORDERS, CUSTOMER, SUPPLIER, NATION, REGION and PART.
//
// It is NOT a faithful dbgen reimplementation; it is a substitution
// (DESIGN.md §4) that preserves exactly the properties the experiments
// depend on:
//
//   - table cardinalities per scale factor (SF1: 6,000,000 LINEITEM rows,
//     1,500,000 ORDERS rows, 150,000 CUSTOMER rows, 10,000 SUPPLIER rows,
//     25 NATION rows, 5 REGION rows, 200,000 PART rows);
//   - the LINEITEM→ORDERS foreign-key join structure (1–7 lineitems per
//     order, ~4 on average);
//   - projected tuple widths (the paper's Q3 projections are four columns
//     of 20 bytes total per table; the microbenchmark uses 100-byte
//     tuples);
//   - *controllable predicate selectivity*: selectivity columns are
//     uniform in [0, 1,000,000), so a predicate "col < s*1e6" qualifies
//     a fraction s of rows, deterministically and independently of the
//     join keys.
//
// All values derive from counter-seeded splitmix64 streams, so any row of
// any table can be generated independently (no state), which lets the
// cluster generate per-node partitions in parallel and lets tests verify
// cross-checks without materializing whole tables.
package tpch

import (
	"fmt"
	"math"
	"math/bits"
)

// splitmix64 is the SplitMix64 mixing function: a bijective hash with
// excellent avalanche, used both as the row RNG and the partitioner hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 exposes the mixer for hash partitioning (storage & exchange use
// the same function so partition-compatibility reasoning is exact).
func Hash64(x uint64) uint64 { return splitmix64(x) }

// uniform returns a deterministic pseudo-uniform value in [0, n) for the
// given (stream, index) pair.
func uniform(stream, index uint64, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return splitmix64(stream*0x9e3779b97f4a7c15^splitmix64(index)) % n
}

// SelDomain is the domain size of selectivity columns: a predicate
// "value < SelThreshold(s)" qualifies fraction s of rows.
const SelDomain = 1_000_000

// SelThreshold converts a selectivity fraction (0..1) into the predicate
// constant for a selectivity column.
func SelThreshold(s float64) int64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return SelDomain
	}
	return int64(s * SelDomain)
}

// ScaleFactor describes TPC-H sizing. SF 1 is 1 GB of raw data in the
// real benchmark; cardinalities below follow the TPC-H specification.
type ScaleFactor float64

// Cardinalities per the TPC-H spec (LINEITEM is approximate in real
// dbgen; we fix it at exactly 4 per order for determinism of totals,
// with per-order variation 1..7 preserved in row generation).
func (sf ScaleFactor) Orders() int64    { return int64(1_500_000 * float64(sf)) }
func (sf ScaleFactor) Lineitems() int64 { return 4 * sf.Orders() }
func (sf ScaleFactor) Customers() int64 { return int64(150_000 * float64(sf)) }
func (sf ScaleFactor) Suppliers() int64 { return int64(10_000 * float64(sf)) }
func (sf ScaleFactor) Parts() int64     { return int64(200_000 * float64(sf)) }
func (sf ScaleFactor) Nations() int64   { return 25 }
func (sf ScaleFactor) Regions() int64   { return 5 }

// Widths of the paper's projections, in bytes per tuple.
const (
	// Q3ProjectedWidth: "these four column projections (20B) were stored
	// as tuples in memory for the scan operator to read" (§4.3).
	Q3ProjectedWidth = 20
	// MicrobenchWidth: the Figure 6 microbenchmark uses 100-byte tuples.
	MicrobenchWidth = 100
	// FullRowWidthLineitem approximates a full LINEITEM row (TPC-H ~112 B).
	FullRowWidthLineitem = 112
	// FullRowWidthOrders approximates a full ORDERS row (~104 B).
	FullRowWidthOrders = 104
)

// Table identifies one of the generated tables.
type Table int

const (
	Lineitem Table = iota
	Orders
	Customer
	Supplier
	Nation
	Region
	Part
)

var tableNames = [...]string{"LINEITEM", "ORDERS", "CUSTOMER", "SUPPLIER", "NATION", "REGION", "PART"}

func (t Table) String() string {
	if int(t) < len(tableNames) {
		return tableNames[t]
	}
	return fmt.Sprintf("Table(%d)", int(t))
}

// Rows returns the cardinality of t at scale factor sf.
func Rows(t Table, sf ScaleFactor) int64 {
	switch t {
	case Lineitem:
		return sf.Lineitems()
	case Orders:
		return sf.Orders()
	case Customer:
		return sf.Customers()
	case Supplier:
		return sf.Suppliers()
	case Nation:
		return sf.Nations()
	case Region:
		return sf.Regions()
	case Part:
		return sf.Parts()
	}
	return 0
}

// RowsFit reports whether Rows(t, sf) is t's true cardinality: the
// scaled count (4 rows per order for LINEITEM) fits in an int64, where
// the conversion and the product would otherwise wrap silently. NATION
// and REGION do not scale.
func RowsFit(t Table, sf ScaleFactor) bool {
	if t == Nation || t == Region {
		return true
	}
	return float64(Rows(t, 1))*float64(sf) < math.MaxInt64
}

// ---------------------------------------------------------------------------
// Row generators: the reference generators for the stored and segment
// columns that the column generators below produce and storage loads.

// OrderRow is a generated ORDERS tuple (projected columns).
type OrderRow struct {
	OrderKey int64
	CustKey  int64
	SelCol   int64 // uniform [0, SelDomain): drives O_* predicates
}

// GenOrder deterministically generates ORDERS row i (0-based).
func GenOrder(sf ScaleFactor, i int64) OrderRow {
	nCust := sf.Customers()
	return OrderRow{
		OrderKey: i + 1,
		CustKey:  int64(uniform(0xA11CE, uint64(i), uint64(nCust))) + 1,
		SelCol:   int64(uniform(0x5E10, uint64(i), SelDomain)),
	}
}

// LineitemRow is a generated LINEITEM tuple (projected columns).
type LineitemRow struct {
	OrderKey int64
	ShipDate int64
	SelCol   int64 // uniform [0, SelDomain): drives L_* predicates
}

// GenLineitem deterministically generates LINEITEM row i (0-based).
// Lineitems are grouped 4 per order: rows [4k, 4k+3] belong to order k+1,
// preserving the FK structure and clustering of dbgen output.
func GenLineitem(sf ScaleFactor, i int64) LineitemRow {
	return LineitemRow{
		OrderKey: i/4 + 1,
		ShipDate: int64(uniform(0x5417, uint64(i), 2557)),
		SelCol:   int64(uniform(0x5E11, uint64(i), SelDomain)),
	}
}

// CustomerRow is a generated CUSTOMER tuple.
type CustomerRow struct {
	CustKey int64
	SelCol  int64
}

// GenCustomer deterministically generates CUSTOMER row i (0-based).
func GenCustomer(sf ScaleFactor, i int64) CustomerRow {
	return CustomerRow{
		CustKey: i + 1,
		SelCol:  int64(uniform(0x5E12, uint64(i), SelDomain)),
	}
}

// SupplierRow is a generated SUPPLIER tuple.
type SupplierRow struct {
	SuppKey int64
	SelCol  int64
}

// GenSupplier deterministically generates SUPPLIER row i (0-based).
func GenSupplier(sf ScaleFactor, i int64) SupplierRow {
	return SupplierRow{
		SuppKey: i + 1,
		SelCol:  int64(uniform(0x5E13, uint64(i), SelDomain)),
	}
}

// ---------------------------------------------------------------------------
// Column generators. The Gen* functions above build one whole row and mix
// the row index once per field; a loader that wants a few columns of many
// rows uses these instead. MixRows mixes each row index once, and every
// drawn Column of the table reuses that mix, so k columns cost one mix per
// row plus one per drawn column, and a column nobody asks for costs
// nothing. Column.Gen reads rows by ID and Column.Select walks a bitmap
// of rows instead, for a store that keeps rows rather than values. The
// values equal the matching Gen* fields exactly (the Gen* functions are
// the oracle the tests compare against).

// streamKey is the per-field half of uniform: the stream constant times
// the multiplier uniform applies, wrapping as uniform's does.
func streamKey(stream uint64) uint64 { return stream * 0x9e3779b97f4a7c15 }

// MixRows stores splitmix64(lo+j) in mix[j]: the per-row half of every
// uniform draw for rows [lo, lo+len(mix)).
func MixRows(lo int64, mix []uint64) {
	for j := range mix {
		mix[j] = splitmix64(uint64(lo) + uint64(j))
	}
}

// Modulus computes x % n exactly with four multiplications in place of a
// divide instruction (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). A column's domain, like a loader's partition
// count, is fixed before the rows are drawn but is not a compile-time
// constant, and an integer divide per row would cost more than the draw.
type Modulus struct {
	n      uint64
	hi, lo uint64 // floor((2^128-1)/n) + 1
}

// NewModulus returns the Modulus for n > 0.
func NewModulus(n uint64) Modulus {
	hi, rem := bits.Div64(0, ^uint64(0), n)
	lo, _ := bits.Div64(rem, ^uint64(0), n)
	lo, carry := bits.Add64(lo, 1, 0)
	return Modulus{n: n, hi: hi + carry, lo: lo}
}

// Mod returns x % n: the fractional part of x/n, held in 128 bits,
// times n.
func (m Modulus) Mod(x uint64) uint64 {
	fh, fl := bits.Mul64(m.lo, x)
	fh += m.hi * x
	low, _ := bits.Mul64(fl, m.n)
	rh, rl := bits.Mul64(fh, m.n)
	_, carry := bits.Add64(rl, low, 0)
	return rh + carry
}

type columnKind uint8

const (
	// colSeq: value = row/per + base (dense keys, the 4-per-order FK).
	colSeq columnKind = iota
	// colDraw: value = uniform(stream, row, n) + base.
	colDraw
)

// Column generates one column of one table for runs of consecutive rows.
type Column struct {
	kind   columnKind
	stream uint64  // colDraw: streamKey of the field's stream constant
	n      Modulus // colDraw: domain size
	base   int64   // added to every value
	per    int64   // colSeq: consecutive rows sharing one value
}

func seqColumn(per, base int64) Column { return Column{kind: colSeq, per: per, base: base} }

func drawColumn(stream, n uint64, base int64) Column {
	if n == 0 { // uniform's empty-domain case: every draw is 0
		n = 1
	}
	return Column{kind: colDraw, stream: streamKey(stream), n: NewModulus(n), base: base}
}

// Sequential reports whether the column is a function of the row index
// alone, so that Fill ignores mix.
func (c Column) Sequential() bool { return c.kind == colSeq }

// Bound returns the exclusive upper bound of a uniform draw's values,
// which are non-negative; ok is false for any other column.
func (c Column) Bound() (bound int64, ok bool) { return c.base + int64(c.n.n), c.kind == colDraw }

// Fill writes the column's values for rows [lo, lo+len(out)) into out.
// Unless the column is Sequential, mix[j] must hold MixRows' value for
// row lo+j.
func (c Column) Fill(lo int64, mix []uint64, out []int64) {
	switch c.kind {
	case colSeq:
		v, r := lo/c.per+c.base, lo%c.per
		for j := range out {
			out[j] = v
			if r++; r == c.per {
				v, r = v+1, 0
			}
		}
	case colDraw:
		for j, h := range mix[:len(out)] {
			out[j] = int64(c.n.Mod(splitmix64(c.stream^h))) + c.base
		}
	}
}

// Gen writes the column's value for row ids[j] into out[j]: Fill for
// rows that need not be consecutive.
func (c Column) Gen(ids []uint32, out []int64) {
	out = out[:len(ids)]
	switch c.kind {
	case colSeq:
		for j, id := range ids {
			out[j] = int64(id)/c.per + c.base
		}
	case colDraw:
		for j, id := range ids {
			out[j] = int64(c.n.Mod(splitmix64(c.stream^splitmix64(uint64(id))))) + c.base
		}
	}
}

// Select walks the bitmap set from row at on, over its next rows rows
// (set bits), appends to dst, in row order, those whose value is below
// thr, and returns the row after the last row walked. set starts at
// at's word: bit i%64 of set[i/64-at/64] stands for row i, and at least
// rows bits are set from at on. Select forms no drawn value. A
// sequential column's value grows with the row, so its rows qualify up
// to a bound. For a drawn column, with t = thr - base, no row qualifies
// for t <= 0 and every row does for t >= n. For 0 < t < n,
// x % n = floor(f * n / 2^128) for Mod's 128-bit fraction f of x, so
// x % n < t exactly when f <= floor((t * 2^128 - 1) / n): two of Mod's
// four multiplies.
func (c Column) Select(set []uint64, at int64, rows int, thr int64, dst []uint32) (int64, []uint32) {
	var below, qh, ql uint64 // rows below row `below` qualify, unless drawn
	drawn := false
	if thr > c.base {
		t := uint64(thr) - uint64(c.base) // thr > base: no wrap
		switch {
		case c.kind == colSeq: // a row ID is below 2^32
			below = min(t, 1<<32) * uint64(c.per)
		case t >= c.n.n:
			below = 1 << 32
		default:
			drawn = true
			qh, ql = bits.Div64(t-1, ^uint64(0), c.n.n)
			ql, _ = bits.Div64(ql, ^uint64(0), c.n.n)
		}
	}
	for w, word := at>>6, set[0]&^(1<<(at&63)-1); ; w, word = w+1, set[w+1-at>>6] {
		last := bits.OnesCount64(word) >= rows // the walk ends in this word
		if last {
			rest := word
			for ; rows > 0; rows-- {
				rest &= rest - 1
			}
			word &^= rest
		} else {
			rows -= bits.OnesCount64(word)
		}
		end := w<<6 + 64 - int64(bits.LeadingZeros64(word))
		for ; word != 0; word &= word - 1 {
			id := uint64(w<<6) | uint64(bits.TrailingZeros64(word))
			if drawn {
				x := splitmix64(c.stream ^ splitmix64(id))
				fh, fl := bits.Mul64(c.n.lo, x)
				if fh += c.n.hi * x; fh < qh || fh == qh && fl <= ql {
					dst = append(dst, uint32(id))
				}
			} else if id < below {
				dst = append(dst, uint32(id))
			}
		}
		if last {
			return end, dst
		}
	}
}

// RowIndexColumn is the key of a generic single-column table: the row
// index itself.
func RowIndexColumn() Column { return seqColumn(1, 0) }

// LineitemCols holds the generators of the LineitemRow fields a table
// stores or segments on; the other fields exist only in GenLineitem.
type LineitemCols struct {
	OrderKey, ShipDate, SelCol Column
}

// LineitemColumns returns the LINEITEM column generators (GenLineitem's
// fields).
func LineitemColumns() LineitemCols {
	return LineitemCols{
		OrderKey: seqColumn(4, 1),
		ShipDate: drawColumn(0x5417, 2557, 0),
		SelCol:   drawColumn(0x5E11, SelDomain, 0),
	}
}

// OrderCols holds the generators of the OrderRow fields a table stores
// or segments on.
type OrderCols struct {
	OrderKey, CustKey, SelCol Column
}

// OrderColumns returns the ORDERS column generators (GenOrder's fields).
func OrderColumns(sf ScaleFactor) OrderCols {
	return OrderCols{
		OrderKey: seqColumn(1, 1),
		CustKey:  drawColumn(0xA11CE, uint64(sf.Customers()), 1),
		SelCol:   drawColumn(0x5E10, SelDomain, 0),
	}
}

// CustomerCols holds the generators of the stored CustomerRow fields.
type CustomerCols struct {
	CustKey, SelCol Column
}

// CustomerColumns returns the CUSTOMER column generators (GenCustomer's
// fields).
func CustomerColumns() CustomerCols {
	return CustomerCols{
		CustKey: seqColumn(1, 1),
		SelCol:  drawColumn(0x5E12, SelDomain, 0),
	}
}

// SupplierCols holds the generators of the stored SupplierRow fields.
type SupplierCols struct {
	SuppKey, SelCol Column
}

// SupplierColumns returns the SUPPLIER column generators (GenSupplier's
// fields).
func SupplierColumns() SupplierCols {
	return SupplierCols{
		SuppKey: seqColumn(1, 1),
		SelCol:  drawColumn(0x5E13, SelDomain, 0),
	}
}
