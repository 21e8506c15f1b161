package tpch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// columnRun fills the column for rows [lo, lo+n) the way a loader does.
func columnRun(c Column, lo int64, n int) []int64 {
	mix := make([]uint64, n)
	MixRows(lo, mix)
	out := make([]int64, n)
	c.Fill(lo, mix, out)
	return out
}

// Every column generator must equal the matching field of the
// row-at-a-time generator, for runs starting at seeded random indexes
// (so runs straddle order boundaries at every phase of the 4-per-order
// layout) and at scale factors small enough for an empty key domain.
func TestColumnsMatchRowGenerators(t *testing.T) {
	const run = 37
	rng := rand.New(rand.NewSource(14))
	for _, sf := range []ScaleFactor{0.000001, 0.01, 2, 1000} {
		for trial := 0; trial < 50; trial++ {
			lo := rng.Int63n(1 << 40)
			if trial == 0 {
				lo = 0
			}
			check := func(name string, c Column, want func(i int64) int64) {
				t.Helper()
				for j, got := range columnRun(c, lo, run) {
					if i := lo + int64(j); got != want(i) {
						t.Fatalf("sf %v %s row %d: column %d, row generator %d", sf, name, i, got, want(i))
					}
				}
			}
			li := LineitemColumns()
			check("L_ORDERKEY", li.OrderKey, func(i int64) int64 { return GenLineitem(sf, i).OrderKey })
			check("L_SHIPDATE", li.ShipDate, func(i int64) int64 { return GenLineitem(sf, i).ShipDate })
			check("L_SELCOL", li.SelCol, func(i int64) int64 { return GenLineitem(sf, i).SelCol })
			o := OrderColumns(sf)
			check("O_ORDERKEY", o.OrderKey, func(i int64) int64 { return GenOrder(sf, i).OrderKey })
			check("O_CUSTKEY", o.CustKey, func(i int64) int64 { return GenOrder(sf, i).CustKey })
			check("O_SELCOL", o.SelCol, func(i int64) int64 { return GenOrder(sf, i).SelCol })
			c := CustomerColumns()
			check("C_CUSTKEY", c.CustKey, func(i int64) int64 { return GenCustomer(sf, i).CustKey })
			check("C_SELCOL", c.SelCol, func(i int64) int64 { return GenCustomer(sf, i).SelCol })
			s := SupplierColumns()
			check("S_SUPPKEY", s.SuppKey, func(i int64) int64 { return GenSupplier(sf, i).SuppKey })
			check("S_SELCOL", s.SelCol, func(i int64) int64 { return GenSupplier(sf, i).SelCol })
			check("row index", RowIndexColumn(), func(i int64) int64 { return i })
		}
	}
}

// A sequential column reads no mix: the key-only pass of a loader skips
// MixRows for it.
func TestSequentialColumnsIgnoreMix(t *testing.T) {
	li, o := LineitemColumns(), OrderColumns(1)
	for _, c := range []Column{li.OrderKey, o.OrderKey, CustomerColumns().CustKey, SupplierColumns().SuppKey, RowIndexColumn()} {
		if !c.Sequential() {
			t.Fatalf("dense key column %+v is not sequential", c)
		}
		out := make([]int64, 9)
		c.Fill(6, nil, out)
		for j, v := range columnRun(c, 6, 9) {
			if out[j] != v {
				t.Fatalf("column %+v differs with a nil mix at row %d", c, 6+j)
			}
		}
	}
	for _, c := range []Column{li.ShipDate, o.CustKey} {
		if c.Sequential() {
			t.Fatalf("drawn column %+v claims to be sequential", c)
		}
	}
}

// Bound is exact for a uniform draw — its values fill [0, bound) or, for
// a key drawn from 1, [1, bound) — and absent for every other column: a
// loader indexes a table of bound entries by the drawn values.
func TestBoundCoversDrawnValues(t *testing.T) {
	const sf = 0.01
	li, o := LineitemColumns(), OrderColumns(sf)
	for _, tc := range []struct {
		name      string
		c         Column
		lo, bound int64
	}{
		{"L_SHIPDATE", li.ShipDate, 0, 2557},
		{"O_CUSTKEY", o.CustKey, 1, ScaleFactor(sf).Customers() + 1},
		{"O_SELCOL", o.SelCol, 0, SelDomain},
	} {
		if bound, ok := tc.c.Bound(); !ok || bound != tc.bound {
			t.Fatalf("%s: Bound = %d, %v; want %d, true", tc.name, bound, ok, tc.bound)
		}
		minV, maxV := tc.bound, int64(-1)
		for _, v := range columnRun(tc.c, 0, 200_000) {
			minV, maxV = min(minV, v), max(maxV, v)
		}
		if minV < tc.lo || maxV >= tc.bound {
			t.Fatalf("%s: values in [%d, %d], outside [%d, %d)", tc.name, minV, maxV, tc.lo, tc.bound)
		}
	}
	for _, c := range []Column{li.OrderKey, o.OrderKey, RowIndexColumn()} {
		if _, ok := c.Bound(); ok {
			t.Fatalf("column %+v is not a draw but reports a bound", c)
		}
	}
}

var sinkRow LineitemRow

// BenchmarkGenLineitem is the row-at-a-time generator: every field of
// one row per op.
func BenchmarkGenLineitem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkRow = GenLineitem(2, int64(i))
	}
}

// BenchmarkLineitemColumns generates the two stored columns of LINEITEM
// a block at a time; one op is one row.
func BenchmarkLineitemColumns(b *testing.B) {
	const block = 4096
	li := LineitemColumns()
	cols := []Column{li.OrderKey, li.SelCol}
	mix := make([]uint64, block)
	out := make([]int64, block)
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += block {
		n := min(block, b.N-lo)
		MixRows(int64(lo), mix[:n])
		for _, c := range cols {
			c.Fill(int64(lo), mix, out[:n])
		}
	}
}

// Modulus.Mod must equal % for every divisor and dividend, including the
// divisors whose reciprocal overflows (1) or is exact (powers of two).
func TestModulusMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	divisors := []uint64{1, 2, 3, 5, 25, 50, 1001, 2557, SelDomain, 1 << 32, 1<<32 + 1, 1 << 52, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}
	for i := 0; i < 200; i++ {
		divisors = append(divisors, rng.Uint64()>>uint(rng.Intn(64))|1)
	}
	for _, n := range divisors {
		m := NewModulus(n)
		xs := []uint64{0, 1, n - 1, n, n + 1, 2*n - 1, 2 * n, ^uint64(0) - 1, ^uint64(0), ^uint64(0) / n * n, ^uint64(0)/n*n - 1}
		for i := 0; i < 2000; i++ {
			xs = append(xs, rng.Uint64())
		}
		for _, x := range xs {
			if got := m.Mod(x); got != x%n {
				t.Fatalf("%d mod %d = %d, want %d", x, n, got, x%n)
			}
		}
	}
}

// window is the rows of a bitmap in [lo, hi): set starts at lo's word,
// and bit i%64 of set[i/64-lo/64] stands for row i.
type window struct {
	set    []uint64
	lo, hi int64
}

// checkSelect asserts that Select, walking the window's rows, keeps
// exactly those whose value, as Fill generates it, is below thr and
// returns the row after the window's last, and that Gen generates the
// values of the window's rows.
func checkSelect(t *testing.T, c Column, thr int64, win window) {
	t.Helper()
	var ids, want []uint32
	var vals []int64
	for i := win.lo; i < win.hi; i++ {
		if win.set[i>>6-win.lo>>6]>>(i&63)&1 == 0 {
			continue
		}
		v := make([]int64, 1)
		c.Fill(i, []uint64{splitmix64(uint64(i))}, v)
		ids, vals = append(ids, uint32(i)), append(vals, v[0])
		if v[0] < thr {
			want = append(want, uint32(i))
		}
	}
	if len(ids) > 0 {
		end, got := c.Select(win.set, win.lo, len(ids), thr, nil)
		if !slices.Equal(got, want) || end != int64(ids[len(ids)-1])+1 {
			t.Fatalf("column %+v thr %d, the %d rows of [%d, %d): Select kept %d rows and stopped at %d; Fill < thr keeps %d, the last row is %d",
				c, thr, len(ids), win.lo, win.hi, len(got), end, len(want), ids[len(ids)-1])
		}
	}
	gen := make([]int64, len(ids))
	if c.Gen(ids, gen); !slices.Equal(gen, vals) {
		t.Fatalf("column %+v: Gen differs from Fill", c)
	}
}

// selectWindows returns bitmaps of eight words over the bottom of the
// row range, where rows 0 to 4 are set, over its top word, where rows
// 2^32-2 and 2^32-1 are set, across the rows where a sequential
// column's thresholds below cut, and at random word-aligned rows; then
// the same bitmaps cut to start and end mid-word, and to rows within
// one word.
func selectWindows(rng *rand.Rand) []window {
	var out []window
	add := func(row uint64) {
		set := make([]uint64, 8)
		for k := range set { // sparse, half, dense, full and empty words
			a, b := rng.Uint64(), rng.Uint64()
			set[k] = [...]uint64{a & b, a, a | b, ^uint64(0), 0, a & b, a, a | b}[k]
		}
		out = append(out, window{set, int64(row), int64(row) + 512})
	}
	add(0)
	out[0].set[0] |= 0x1F
	add(1<<32 - 512)
	out[1].set[7] |= 3 << 62
	for _, cut := range []uint64{1 << 20, 4 << 20, 1 << 31} {
		add(cut - 256)
	}
	for len(out) < 24 {
		add(uint64(rng.Int63n(1<<32-512)) &^ 63)
	}
	for _, w := range out[:len(out):len(out)] {
		lo, hi := w.lo+rng.Int63n(64), w.hi-rng.Int63n(64)
		out = append(out, window{w.set, lo, hi}, window{w.set[lo>>6-w.lo>>6:], lo, min(lo+rng.Int63n(64-lo&63), hi)})
	}
	return out
}

// Select must agree with Fill followed by "< thr" on both sides of every
// edge of the domain — no row, one value, half, all but one, all — for
// domains with an overflowing (1) or exact (powers of two) reciprocal,
// the TPC-H ones and O_CUSTKEY's at three scale factors, and for the
// sequential columns a generic table selects on, over bitmaps anywhere
// in the rows a table may hold, whole words or cut mid-word.
func TestColumnSelectMatchesFill(t *testing.T) {
	wins := selectWindows(rand.New(rand.NewSource(40)))
	domains := []uint64{1, 2, 3, 2557, 1 << 20, SelDomain}
	for _, sf := range []ScaleFactor{0.01, 2, 1000} {
		domains = append(domains, uint64(sf.Customers()))
	}
	for _, n := range domains {
		for _, base := range []int64{0, 1} {
			c := drawColumn(0x5E11, n, base)
			t0 := base + int64(n)
			for _, thr := range []int64{math.MinInt64, base - 1, base, base + 1, base + int64(n)/2, t0 - 1, t0, t0 + 1, math.MaxInt64} {
				for _, win := range wins {
					checkSelect(t, c, thr, win)
				}
			}
		}
	}
	for _, c := range []Column{LineitemColumns().OrderKey, RowIndexColumn()} {
		for _, thr := range []int64{math.MinInt64, 0, 1, 2, 1 << 20, 1 << 31, math.MaxInt64} {
			for _, win := range wins {
				checkSelect(t, c, thr, win)
			}
		}
	}
}

// FuzzColumnSelect checks Select against Fill for a random drawn column
// — stream, domain, base — threshold and bitmap: its words, the row of
// its first word, and the bits cut off its first and last words.
func FuzzColumnSelect(f *testing.F) {
	f.Add(uint64(0x5E11), uint64(SelDomain), int64(0), int64(50_000), uint32(0), uint8(0), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint64(0xA11CE), uint64(300_000), int64(1), int64(150_001), uint32(1<<32-64), uint8(3), uint8(1), []byte("bits of a partition"))
	f.Add(uint64(0x5417), uint64(2557), int64(0), int64(2556), uint32(1<<20+7), uint8(63), uint8(63), []byte{0xff, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint64(0), uint64(1), int64(-3), int64(-3), uint32(5), uint8(9), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, stream, n uint64, base, thr int64, row uint32, skip, cut uint8, raw []byte) {
		// Every value (x % n) + base must fit an int64, as a real column's does.
		n, base = n%(1<<62), int64(int32(base))
		set := make([]uint64, len(raw)/8)
		for k := range set {
			set[k] = binary.LittleEndian.Uint64(raw[8*k:])
		}
		lo := min(int64(row)&^63, 1<<32-64*int64(len(set))) // the bitmap ends by row 2^32
		win := window{set, lo + int64(skip%64), lo + 64*int64(len(set)) - int64(cut%64)}
		checkSelect(t, drawColumn(stream, n, base), thr, win)
	})
}
