package pstore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tpch"
)

func supplierDim(sel float64, mat bool) DimJoin {
	return SupplierDim(testSF, sel, mat)
}

func TestDimJoinValidate(t *testing.T) {
	d := supplierDim(0.5, false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []float64{0, -0.5, 1.5, math.NaN()} {
		bad := d
		bad.Sel = sel
		if err := bad.Validate(); err == nil {
			t.Fatalf("selectivity %v accepted", sel)
		}
	}
	bad := d
	bad.Dim.Placement = storage.HashSegmented
	if err := bad.Validate(); err == nil {
		t.Fatal("non-replicated dimension accepted")
	}
}

// A dimension's KeyCol must be a stored foreign key of the probe table,
// LINEITEM's L_SUPPKEY being the only one. Validate rejects every other
// index, naming the table and the index, on materialized and phantom
// probes alike, so no bad spec reaches the simulation.
func TestJoinSpecValidateRejectsDimKeyCol(t *testing.T) {
	for _, mat := range []bool{true, false} {
		orders, lineitem := smallDefs(mat)
		for _, tc := range []struct {
			name   string
			probe  storage.TableDef
			keyCol int
			ok     bool
		}{
			{"L_SUPPKEY", lineitem, storage.LineitemColSupp, true},
			{"out of range", lineitem, 7, false},
			{"selection column", lineitem, storage.ColSel, false},
			{"join key", lineitem, storage.ColKey, false},
			{"negative", lineitem, -1, false},
			{"probe without a foreign key", orders, storage.LineitemColSupp, false},
		} {
			build := orders
			if tc.probe.Table == tpch.Orders {
				build = lineitem
			}
			d := SupplierDim(testSF, 0.5, mat)
			d.KeyCol = tc.keyCol
			spec := JoinSpec{Build: build, Probe: tc.probe, BuildSel: 0.1, ProbeSel: 0.1,
				Method: DualShuffle, Dims: []DimJoin{d}}
			c := newCluster(t, 2)
			err := spec.Validate(c)
			if tc.ok {
				if err != nil {
					t.Fatalf("mat=%v %s: %v", mat, tc.name, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("mat=%v %s: KeyCol %d accepted", mat, tc.name, tc.keyCol)
			}
			for _, want := range []string{tc.probe.Table.String(), fmt.Sprint(tc.keyCol)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("mat=%v %s: error %q does not name %q", mat, tc.name, err, want)
				}
			}
			if _, _, err := RunJoin(c, cfgSmall(), spec); err == nil {
				t.Fatalf("mat=%v %s: RunJoin accepted KeyCol %d", mat, tc.name, tc.keyCol)
			}
		}
	}
}

func TestDimJoinMatchesReference(t *testing.T) {
	// Q21-style plan: LINEITEM ⋈ ORDERS dual shuffle plus a replicated
	// SUPPLIER semijoin at 40% selectivity, verified against the serial
	// oracle.
	build, probe := smallDefs(true)
	dims := []DimJoin{supplierDim(0.4, true)}
	wantRows, wantSum := ReferenceJoinWithDims(build, probe, 0.10, 0.25, dims)
	if wantRows == 0 {
		t.Fatal("degenerate reference")
	}
	plain, _ := ReferenceJoin(build, probe, 0.10, 0.25)
	if wantRows >= plain {
		t.Fatalf("dimension semijoin did not filter: %d vs %d", wantRows, plain)
	}
	for _, n := range []int{1, 3} {
		c := newCluster(t, n)
		res, _, err := RunJoin(c, cfgSmall(), JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.25,
			Method: DualShuffle, Dims: dims,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputRows != wantRows || res.Checksum != wantSum {
			t.Fatalf("n=%d: got (%d,%d), want (%d,%d)", n, res.OutputRows, res.Checksum, wantRows, wantSum)
		}
	}
}

func TestDimJoinPhantomCardinality(t *testing.T) {
	// Phantom accounting: output scales by the dimension selectivity.
	build, probe := smallDefs(false)
	build.SF, probe.SF = 5, 5
	cfg := Config{WarmCache: true, BatchRows: 100_000}
	run := func(dims []DimJoin) int64 {
		c := newCluster(t, 4)
		res, _, err := RunJoin(c, cfg, JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.20,
			Method: DualShuffle, Dims: dims,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.OutputRows
	}
	base := run(nil)
	filtered := run([]DimJoin{supplierDim(0.5, false)})
	ratio := float64(filtered) / float64(base)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("dimension cut output to %.3f of base, want ~0.5", ratio)
	}
}

func TestDimJoinReducesNetworkTraffic(t *testing.T) {
	// The Q21 lesson: local dimension semijoins shrink what crosses the
	// wire, so a selective dimension makes the shuffle-bound query FASTER
	// despite extra CPU work.
	build, probe := smallDefs(false)
	build.SF, probe.SF = 10, 10
	cfg := Config{WarmCache: true, BatchRows: 200_000}
	run := func(dims []DimJoin) float64 {
		c := newCluster(t, 8)
		res, _, err := RunJoin(c, cfg, JoinSpec{
			Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.5,
			Method: DualShuffle, Dims: dims,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	base := run(nil)
	withDim := run([]DimJoin{supplierDim(0.1, false)})
	if withDim >= base {
		t.Fatalf("selective dimension did not speed up shuffle-bound join: %.3f vs %.3f", withDim, base)
	}
}

func TestDimJoinChainsMultiplicatively(t *testing.T) {
	build, probe := smallDefs(false)
	build.SF, probe.SF = 5, 5
	cfg := Config{WarmCache: true, BatchRows: 100_000}
	c := newCluster(t, 2)
	res, _, err := RunJoin(c, cfg, JoinSpec{
		Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.40,
		Method: DualShuffle,
		Dims:   []DimJoin{supplierDim(0.5, false), supplierDim(0.5, false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// qualified probe = 0.4*0.5*0.5 of lineitems; matches at 10%.
	want := float64(tpch.ScaleFactor(5).Lineitems()) * 0.4 * 0.25 * 0.10
	got := float64(res.OutputRows)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("chained dims output %v, want ~%v", got, want)
	}
}

func TestDimJoinRejectedByValidate(t *testing.T) {
	build, probe := smallDefs(false)
	c := newCluster(t, 2)
	e := New(c, cfgSmall())
	bad := supplierDim(0.5, false)
	bad.Dim.Placement = storage.HashSegmented
	_, err := e.LaunchJoin("q", JoinSpec{Build: build, Probe: probe,
		BuildSel: 0.1, ProbeSel: 0.1, Method: DualShuffle, Dims: []DimJoin{bad}})
	if err == nil {
		t.Fatal("invalid dimension accepted")
	}
}
