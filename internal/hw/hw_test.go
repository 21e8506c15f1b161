package hw

import (
	"math"
	"testing"
)

func TestCatalogValidates(t *testing.T) {
	for _, s := range []Spec{ClusterV(), BeefyL5630(), LaptopB(), WimpyModelNode(),
		WorkstationA(), WorkstationB(), DesktopAtom(), LaptopA(), LaptopBMicro()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := ClusterV()
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.CPUBandwidth = 0 },
		func(s *Spec) { s.MemoryMB = -1 },
		func(s *Spec) { s.DiskMBps = 0 },
		func(s *Spec) { s.NetMBps = 0 },
		func(s *Spec) { s.UtilFloor = 1.5 },
		func(s *Spec) { s.Power = nil },
	}
	for i, mut := range cases {
		s := good
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec validated", i)
		}
	}
}

func TestTable3Constants(t *testing.T) {
	cv := ClusterV()
	if cv.CPUBandwidth != 5037 {
		t.Errorf("C_B = %v, want 5037", cv.CPUBandwidth)
	}
	if cv.UtilFloor != 0.25 {
		t.Errorf("G_B = %v, want 0.25", cv.UtilFloor)
	}
	w := LaptopB()
	if w.CPUBandwidth != 1129 {
		t.Errorf("C_W = %v, want 1129", w.CPUBandwidth)
	}
	if w.UtilFloor != 0.13 {
		t.Errorf("G_W = %v, want 0.13", w.UtilFloor)
	}
	if w.MemoryMB != 7000 {
		t.Errorf("M_W = %v, want 7000", w.MemoryMB)
	}
}

func TestSection54ModelSettings(t *testing.T) {
	cv := ClusterV()
	if cv.MemoryMB != 47000 || cv.DiskMBps != 1200 || cv.NetMBps != 100 {
		t.Errorf("cluster-V model settings = M%v I%v L%v, want 47000/1200/100",
			cv.MemoryMB, cv.DiskMBps, cv.NetMBps)
	}
	wm := WimpyModelNode()
	if wm.DiskMBps != 1200 || wm.NetMBps != 100 {
		t.Errorf("wimpy model node I/L = %v/%v, want 1200/100 (uniform I/O assumption)",
			wm.DiskMBps, wm.NetMBps)
	}
}

func TestSection531ValidationSettings(t *testing.T) {
	b := BeefyL5630()
	if b.CPUBandwidth != 4034 || b.MemoryMB != 31000 || b.DiskMBps != 270 || b.NetMBps != 95 {
		t.Errorf("L5630 = C%v M%v I%v L%v, want 4034/31000/270/95",
			b.CPUBandwidth, b.MemoryMB, b.DiskMBps, b.NetMBps)
	}
}

func TestWimpyPowerFractionOfBeefy(t *testing.T) {
	// §5.4: Wimpy power footprint ≈ 10% of Beefy.
	r := LaptopB().Power.Watts(1) / ClusterV().Power.Watts(1)
	if r < 0.05 || r > 0.2 {
		t.Errorf("peak wimpy/beefy = %v, want ~0.1", r)
	}
}

func TestMicrobenchFigure6Anchors(t *testing.T) {
	// The Figure 6 workload pushes 2010 MB of tuples = 4020 MB of CPU
	// work (scan + join) through each system.
	const workMB = 4020.0
	type anchor struct {
		spec    Spec
		wantSec float64
		wantJ   float64
	}
	anchors := []anchor{
		{WorkstationA(), 13, 1300},
		{WorkstationB(), 15, 1100},
		{DesktopAtom(), 48, 1650},
		{LaptopA(), 38, 950},
		{LaptopBMicro(), 25, 800},
	}
	for _, a := range anchors {
		sec := workMB / a.spec.CPUBandwidth
		j := sec * a.spec.Power.Watts(1)
		if math.Abs(sec-a.wantSec)/a.wantSec > 0.02 {
			t.Errorf("%s: modelled time %.1f s, want ~%.0f", a.spec.Name, sec, a.wantSec)
		}
		if math.Abs(j-a.wantJ)/a.wantJ > 0.02 {
			t.Errorf("%s: modelled energy %.0f J, want ~%.0f", a.spec.Name, j, a.wantJ)
		}
	}
}

func TestLaptopBLowestEnergyInMicrobench(t *testing.T) {
	const workMB = 4020.0
	best := ""
	bestJ := math.Inf(1)
	for _, s := range MicrobenchSystems() {
		j := workMB / s.CPUBandwidth * s.Power.Watts(1)
		if j < bestJ {
			bestJ, best = j, s.Name
		}
	}
	if best != LaptopBMicro().Name {
		t.Errorf("lowest-energy system = %s, want Laptop B (paper Fig 6)", best)
	}
}

func TestClassString(t *testing.T) {
	if Beefy.String() != "Beefy" || Wimpy.String() != "Wimpy" {
		t.Error("Class.String broken")
	}
}

func TestIdleOrderingMatchesTable2(t *testing.T) {
	// Table 2 idle watts: Workstation A 93 > Workstation B 69 > Desktop 28
	// > Laptop A 12 > Laptop B 11.
	order := []Spec{WorkstationA(), WorkstationB(), DesktopAtom(), LaptopA(), LaptopBMicro()}
	for i := 1; i < len(order); i++ {
		if order[i].IdleWatts >= order[i-1].IdleWatts {
			t.Errorf("idle watts not strictly decreasing at %s", order[i].Name)
		}
	}
}
