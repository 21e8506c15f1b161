package tpch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCardinalities(t *testing.T) {
	sf := ScaleFactor(1)
	if sf.Orders() != 1_500_000 {
		t.Errorf("SF1 orders = %d", sf.Orders())
	}
	if sf.Lineitems() != 6_000_000 {
		t.Errorf("SF1 lineitems = %d", sf.Lineitems())
	}
	if sf.Customers() != 150_000 || sf.Suppliers() != 10_000 || sf.Parts() != 200_000 {
		t.Error("SF1 small-table cardinalities wrong")
	}
	if sf.Nations() != 25 || sf.Regions() != 5 {
		t.Error("fixed-table cardinalities wrong")
	}
	sf1000 := ScaleFactor(1000)
	if sf1000.Lineitems() != 6_000_000_000 {
		t.Errorf("SF1000 lineitems = %d", sf1000.Lineitems())
	}
}

func TestFractionalScaleFactor(t *testing.T) {
	sf := ScaleFactor(0.01)
	if sf.Orders() != 15_000 || sf.Lineitems() != 60_000 {
		t.Errorf("SF0.01 = %d orders, %d lineitems", sf.Orders(), sf.Lineitems())
	}
}

func TestRowsDispatch(t *testing.T) {
	sf := ScaleFactor(1)
	cases := map[Table]int64{
		Lineitem: 6_000_000, Orders: 1_500_000, Customer: 150_000,
		Supplier: 10_000, Nation: 25, Region: 5, Part: 200_000,
	}
	for tab, want := range cases {
		if got := Rows(tab, sf); got != want {
			t.Errorf("Rows(%s) = %d, want %d", tab, got, want)
		}
	}
}

// At SF 4e12 LINEITEM's 2.4e19 rows wrap an int64 to a positive count;
// RowsFit must refuse it while ORDERS (6e18 rows) still fits.
func TestRowsFit(t *testing.T) {
	for _, tc := range []struct {
		table Table
		sf    ScaleFactor
		want  bool
	}{
		{Lineitem, 1000, true},
		{Lineitem, 4e12, false},
		{Orders, 4e12, true},
		{Orders, 1e13, false},
		{Customer, 1e13, true},
		{Customer, 1e14, false},
		{Nation, 1e30, true},
	} {
		if got := RowsFit(tc.table, tc.sf); got != tc.want {
			t.Errorf("RowsFit(%v, %v) = %v, want %v (Rows = %d)", tc.table, tc.sf, got, tc.want, Rows(tc.table, tc.sf))
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	sf := ScaleFactor(0.1)
	for i := int64(0); i < 100; i++ {
		a, b := GenOrder(sf, i), GenOrder(sf, i)
		if a != b {
			t.Fatalf("GenOrder(%d) nondeterministic", i)
		}
		la, lb := GenLineitem(sf, i), GenLineitem(sf, i)
		if la != lb {
			t.Fatalf("GenLineitem(%d) nondeterministic", i)
		}
	}
}

func TestOrderKeysAreDense(t *testing.T) {
	sf := ScaleFactor(0.01)
	for i := int64(0); i < 1000; i++ {
		if GenOrder(sf, i).OrderKey != i+1 {
			t.Fatalf("order %d key = %d", i, GenOrder(sf, i).OrderKey)
		}
	}
}

func TestLineitemForeignKeyStructure(t *testing.T) {
	sf := ScaleFactor(0.01)
	// Every lineitem's orderkey must reference an existing order, and each
	// order must have exactly 4 lineitems.
	counts := map[int64]int{}
	n := sf.Lineitems()
	for i := int64(0); i < n; i++ {
		ok := GenLineitem(sf, i).OrderKey
		if ok < 1 || ok > sf.Orders() {
			t.Fatalf("lineitem %d orderkey %d out of range", i, ok)
		}
		counts[ok]++
	}
	for key, c := range counts {
		if c != 4 {
			t.Fatalf("order %d has %d lineitems, want 4", key, c)
		}
	}
}

func TestSelectivityColumnUniform(t *testing.T) {
	// The whole experimental design hinges on predicates hitting their
	// stated selectivities. Check the empirical fraction on a large sample.
	sf := ScaleFactor(0.1)
	for _, want := range []float64{0.01, 0.05, 0.10, 0.50} {
		thr := SelThreshold(want)
		hits := 0
		n := int64(200_000)
		for i := int64(0); i < n; i++ {
			if GenLineitem(sf, i).SelCol < thr {
				hits++
			}
		}
		got := float64(hits) / float64(n)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("selectivity %.2f: empirical %.4f (>5%% off)", want, got)
		}
	}
}

func TestOrdersSelectivityIndependentOfLineitem(t *testing.T) {
	// L and O selectivity columns come from different streams; joint
	// probability must factorize (independence within ~noise).
	sf := ScaleFactor(0.1)
	thrO := SelThreshold(0.1)
	thrL := SelThreshold(0.1)
	both, n := 0, int64(100_000)
	for i := int64(0); i < n; i++ {
		li := GenLineitem(sf, i)
		o := GenOrder(sf, li.OrderKey-1)
		if li.SelCol < thrL && o.SelCol < thrO {
			both++
		}
	}
	got := float64(both) / float64(n)
	if math.Abs(got-0.01) > 0.003 {
		t.Errorf("joint selectivity = %.4f, want ~0.01 (independence)", got)
	}
}

func TestSelThresholdBounds(t *testing.T) {
	if SelThreshold(-1) != 0 || SelThreshold(0) != 0 {
		t.Error("SelThreshold low bound")
	}
	if SelThreshold(2) != SelDomain || SelThreshold(1) != SelDomain {
		t.Error("SelThreshold high bound")
	}
}

func TestCustKeyInRange(t *testing.T) {
	sf := ScaleFactor(0.01)
	for i := int64(0); i < 5000; i++ {
		ck := GenOrder(sf, i).CustKey
		if ck < 1 || ck > sf.Customers() {
			t.Fatalf("order %d custkey %d out of [1,%d]", i, ck, sf.Customers())
		}
	}
}

func TestCustomerSupplierGeneration(t *testing.T) {
	sf := ScaleFactor(0.1)
	for i := int64(0); i < 1000; i++ {
		c := GenCustomer(sf, i)
		if c.CustKey != i+1 || c.SelCol < 0 || c.SelCol >= SelDomain {
			t.Fatalf("customer %d malformed: %+v", i, c)
		}
		s := GenSupplier(sf, i)
		if s.SuppKey != i+1 || s.SelCol < 0 || s.SelCol >= SelDomain {
			t.Fatalf("supplier %d malformed: %+v", i, s)
		}
	}
}

func TestHash64Bijectivity(t *testing.T) {
	// splitmix64 is bijective; no collisions on a contiguous range.
	seen := make(map[uint64]bool, 100000)
	for i := uint64(0); i < 100000; i++ {
		h := Hash64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}

func TestHash64PartitionBalanceProperty(t *testing.T) {
	// Hash partitioning of dense keys must balance across any node count —
	// the paper's experiments assume no data skew (§4.1 leaves skew to
	// future work).
	f := func(nodes8 uint8) bool {
		n := int(nodes8%15) + 2 // 2..16 nodes
		counts := make([]int, n)
		total := 60000
		for i := 0; i < total; i++ {
			counts[int(Hash64(uint64(i))%uint64(n))]++
		}
		want := float64(total) / float64(n)
		for _, c := range counts {
			if math.Abs(float64(c)-want)/want > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValueRanges(t *testing.T) {
	sf := ScaleFactor(0.01)
	for i := int64(0); i < 2000; i++ {
		li := GenLineitem(sf, i)
		if li.OrderKey != i/4+1 || li.ShipDate < 0 || li.ShipDate >= 2557 || li.SelCol < 0 || li.SelCol >= SelDomain {
			t.Fatalf("lineitem %d out of range: %+v", i, li)
		}
		o := GenOrder(sf, i)
		if o.OrderKey != i+1 || o.SelCol < 0 || o.SelCol >= SelDomain {
			t.Fatalf("order %d out of range: %+v", i, o)
		}
	}
}

func TestTableString(t *testing.T) {
	if Lineitem.String() != "LINEITEM" || Orders.String() != "ORDERS" {
		t.Error("Table.String broken")
	}
	if Table(99).String() == "" {
		t.Error("unknown table string empty")
	}
}
