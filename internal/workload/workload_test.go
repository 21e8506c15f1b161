package workload

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/pstore"
)

func TestQ3JoinIsPartitionIncompatible(t *testing.T) {
	s := Q3Join(1, 0.05, 0.05, pstore.DualShuffle)
	if s.Build.SegmentColumn != "O_CUSTKEY" || s.Probe.SegmentColumn != "L_SHIPDATE" {
		t.Fatalf("Q3 segmentation = %s/%s, want O_CUSTKEY/L_SHIPDATE (§4.3)",
			s.Build.SegmentColumn, s.Probe.SegmentColumn)
	}
	if s.Build.Width != 20 || s.Probe.Width != 20 {
		t.Fatal("Q3 projections must be 20 bytes")
	}
}

func TestQ3PrepartitionedCompatible(t *testing.T) {
	s := Q3JoinPrepartitioned(1, 0.05, 0.05)
	if s.Build.SegmentColumn != "O_ORDERKEY" || s.Probe.SegmentColumn != "L_ORDERKEY" {
		t.Fatal("prepartitioned variant must segment both tables on ORDERKEY")
	}
	if s.Method != pstore.Prepartitioned {
		t.Fatal("wrong method")
	}
}

func TestMicrobenchVolumes(t *testing.T) {
	s := MicrobenchJoin()
	if got := s.Build.TotalRows(); got != 100_000 {
		t.Fatalf("build rows = %d", got)
	}
	if got := s.Probe.TotalRows(); got != 20_000_000 {
		t.Fatalf("probe rows = %d", got)
	}
	if s.Build.TotalBytes() != 10e6 || s.Probe.TotalBytes() != 2000e6 {
		t.Fatalf("microbench sizes = %v / %v bytes", s.Build.TotalBytes(), s.Probe.TotalBytes())
	}
}

func TestMicrobenchFigure6Anchors(t *testing.T) {
	// Running the actual engine on each Table 2 system must land on the
	// Figure 6 coordinates the hw catalog was anchored to.
	type want struct {
		spec hw.Spec
		sec  float64
		j    float64
	}
	cases := []want{
		{hw.WorkstationA(), 13, 1300},
		{hw.WorkstationB(), 15, 1100},
		{hw.DesktopAtom(), 48, 1650},
		{hw.LaptopA(), 38, 950},
		{hw.LaptopBMicro(), 25, 800},
	}
	for _, c := range cases {
		sec, j, err := RunMicrobenchOn(pstore.Engine{}, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		if math.Abs(sec-c.sec)/c.sec > 0.05 {
			t.Errorf("%s: %.1f s, want ~%.0f", c.spec.Name, sec, c.sec)
		}
		if math.Abs(j-c.j)/c.j > 0.05 {
			t.Errorf("%s: %.0f J, want ~%.0f", c.spec.Name, j, c.j)
		}
	}
}

func TestMicrobenchLaptopBWins(t *testing.T) {
	// Figure 6's headline: Laptop B consumes the least energy even though
	// the workstations are faster.
	bestName, bestJ := "", math.Inf(1)
	fastestName, fastestS := "", math.Inf(1)
	for _, spec := range hw.MicrobenchSystems() {
		sec, j, err := RunMicrobenchOn(pstore.Engine{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if j < bestJ {
			bestJ, bestName = j, spec.Name
		}
		if sec < fastestS {
			fastestS, fastestName = sec, spec.Name
		}
	}
	if bestName != hw.LaptopBMicro().Name {
		t.Fatalf("lowest energy = %s, want Laptop B", bestName)
	}
	if fastestName != hw.WorkstationA().Name {
		t.Fatalf("fastest = %s, want Workstation A", fastestName)
	}
}

func TestJoinRequestSpecDefaults(t *testing.T) {
	spec, err := JoinRequest{}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := Q3Join(10, 0.05, 0.05, pstore.DualShuffle)
	if spec.Build != want.Build || spec.Probe != want.Probe ||
		spec.BuildSel != want.BuildSel || spec.ProbeSel != want.ProbeSel ||
		spec.Method != want.Method {
		t.Fatalf("default request spec = %+v, want %+v", spec, want)
	}
}

func TestJoinRequestSpecMethods(t *testing.T) {
	spec, err := JoinRequest{SF: 5, BuildSel: 0.1, ProbeSel: 0.02, Method: "prepartitioned"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Method != pstore.Prepartitioned || spec.Build.SegmentColumn != "O_ORDERKEY" {
		t.Fatalf("prepartitioned request built %+v", spec)
	}
	if _, err := (JoinRequest{Method: "sort-merge"}).Spec(); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestJoinRequestSpecRejectsBadNumbers(t *testing.T) {
	bad := []JoinRequest{
		{SF: -1},
		{SF: math.NaN()},
		{SF: math.Inf(1)},
		{BuildSel: -0.5},
		{BuildSel: 1.5},
		{ProbeSel: math.NaN()},
		// A served join's wall time is linear in SF: past the streaming
		// path's reach the request is refused, not run for hours.
		{SF: maxRequestSF + 1},
		{SF: 1e9},
		// Too small for ORDERS to have a row: refused before any run.
		{SF: 1e-9},
	}
	for _, r := range bad {
		if _, err := r.Spec(); err == nil {
			t.Fatalf("request %+v accepted", r)
		}
	}
	if _, err := (JoinRequest{SF: maxRequestSF}).Spec(); err != nil {
		t.Fatalf("sf %d refused: %v", maxRequestSF, err)
	}
}
