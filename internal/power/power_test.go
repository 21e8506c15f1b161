package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// The paper's cluster-V model: 130.03 * (100c)^0.2369 (Table 1).
var clusterV = PowerLaw{A: 130.03, B: 0.2369}

// The paper's Wimpy (Laptop B) model: 10.994 * (100c)^0.2875 (Table 3).
var wimpy = PowerLaw{A: 10.994, B: 0.2875}

func TestPowerLawMatchesPaperAnchors(t *testing.T) {
	// At 100% utilization the cluster-V node draws A*100^B watts.
	got := clusterV.Watts(1.0)
	want := 130.03 * math.Pow(100, 0.2369)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("clusterV at 100%% = %v, want %v", got, want)
	}
	// Paper's f(G_B)=f(0.25): the engine-idle floor power.
	gotIdle := clusterV.Watts(0.25)
	wantIdle := 130.03 * math.Pow(25, 0.2369)
	if math.Abs(gotIdle-wantIdle) > 1e-9 {
		t.Fatalf("clusterV at 25%% = %v, want %v", gotIdle, wantIdle)
	}
}

func TestWimpyDrawsFractionOfBeefy(t *testing.T) {
	// Section 5.4: "a Wimpy node power footprint is almost 10% of the
	// Beefy node power footprint".
	ratio := wimpy.Watts(1.0) / clusterV.Watts(1.0)
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("wimpy/beefy full-power ratio = %v, want ~0.1", ratio)
	}
}

func TestModelsMonotonic(t *testing.T) {
	models := []Model{
		clusterV, wimpy,
		Exponential{A: 50, B: 1.2},
		Logarithmic{A: 60, B: 20},
		Linear{Idle: 93, Peak: 250},
	}
	for _, m := range models {
		prev := m.Watts(0.01)
		for u := 0.05; u <= 1.0; u += 0.05 {
			w := m.Watts(u)
			if w < prev-1e-9 {
				t.Fatalf("%s not monotonic at u=%v: %v < %v", m, u, w, prev)
			}
			prev = w
		}
	}
}

func TestClampOutOfRange(t *testing.T) {
	if clusterV.Watts(1.5) != clusterV.Watts(1.0) {
		t.Fatal("utilization not clamped above 1")
	}
	lin := Linear{Idle: 10, Peak: 20}
	if lin.Watts(-1) != 10 {
		t.Fatal("utilization not clamped below 0")
	}
}

func TestFitPowerLawRecoversParameters(t *testing.T) {
	truth := PowerLaw{A: 130.03, B: 0.2369}
	var samples []Sample
	for u := 0.1; u <= 1.0; u += 0.1 {
		samples = append(samples, Sample{Util: u, Watts: truth.Watts(u)})
	}
	fit, err := FitPowerLaw(samples)
	if err != nil {
		t.Fatal(err)
	}
	m := fit.Model.(PowerLaw)
	if math.Abs(m.A-truth.A) > 0.01 || math.Abs(m.B-truth.B) > 1e-4 {
		t.Fatalf("recovered A=%v B=%v, want A=%v B=%v", m.A, m.B, truth.A, truth.B)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R² = %v on noiseless data, want ~1", fit.R2)
	}
}

func TestFitLinearRecoversParameters(t *testing.T) {
	truth := Linear{Idle: 93, Peak: 250}
	var samples []Sample
	for u := 0.0; u <= 1.0; u += 0.125 {
		samples = append(samples, Sample{Util: u, Watts: truth.Watts(u)})
	}
	fit, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	m := fit.Model.(Linear)
	if math.Abs(m.Idle-93) > 1e-6 || math.Abs(m.Peak-250) > 1e-6 {
		t.Fatalf("recovered %+v, want idle=93 peak=250", m)
	}
}

func TestFitBestSelectsGeneratingForm(t *testing.T) {
	// Data generated from a power law should be best fit by the power law,
	// mirroring the paper's R²-based model selection.
	truth := PowerLaw{A: 79.006, B: 0.2451} // the L5630 Beefy model (§5.3.1)
	var samples []Sample
	for u := 0.05; u <= 1.0; u += 0.05 {
		samples = append(samples, Sample{Util: u, Watts: truth.Watts(u)})
	}
	fit, err := FitBest(samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fit.Model.(PowerLaw); !ok {
		t.Fatalf("FitBest chose %T (%s), want PowerLaw", fit.Model, fit.Describe())
	}
}

func TestFitDegenerate(t *testing.T) {
	if _, err := FitBest(nil); err == nil {
		t.Fatal("FitBest(nil) did not error")
	}
	if _, err := FitBest([]Sample{{0.5, 100}}); err == nil {
		t.Fatal("FitBest with one sample did not error")
	}
}

func TestCalibrationRunSortsLevels(t *testing.T) {
	got := CalibrationRun([]float64{0.9, 0.1, 0.5}, func(u float64) float64 { return 100 * u })
	if len(got) != 3 || got[0].Util != 0.1 || got[2].Util != 0.9 {
		t.Fatalf("calibration order wrong: %+v", got)
	}
}

// Property: power-law fit round-trips for random positive parameters.
func TestFitPowerLawRoundTripProperty(t *testing.T) {
	f := func(a8, b8 uint8) bool {
		a := 10 + float64(a8)          // A in [10, 265]
		b := float64(b8%50)/100 + 0.05 // B in [0.05, 0.54]
		truth := PowerLaw{A: a, B: b}
		var samples []Sample
		for u := 0.1; u <= 1.0; u += 0.09 {
			samples = append(samples, Sample{Util: u, Watts: truth.Watts(u)})
		}
		fit, err := FitPowerLaw(samples)
		if err != nil {
			return false
		}
		m := fit.Model.(PowerLaw)
		return math.Abs(m.A-a)/a < 1e-6 && math.Abs(m.B-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterIdleVsBusy(t *testing.T) {
	// A node idle for 10s then busy for 10s: energy must be
	// 10*f(G) + 10*f(G+1 clamped to 1).
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 100)
	m := NewMeter(eng, cpu, clusterV, 0.25)
	eng.Go("load", func(p *sim.Proc) {
		p.Hold(10)
		cpu.Process(p, 1000) // 10 seconds of work
	})
	eng.Run()
	m.Stop()
	want := 10*clusterV.Watts(0.25) + 10*clusterV.Watts(1.0)
	if math.Abs(m.Joules()-want) > 1e-6 {
		t.Fatalf("energy = %v, want %v", m.Joules(), want)
	}
	if math.Abs(m.Seconds()-20) > 1e-9 {
		t.Fatalf("metered %v s, want 20", m.Seconds())
	}
}

func TestMeterPartialWindow(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 100)
	m := NewMeter(eng, cpu, Linear{Idle: 10, Peak: 110}, 0)
	eng.Go("load", func(p *sim.Proc) {
		cpu.Process(p, 50) // busy [0, 0.5)
	})
	eng.Run()
	m.Stop()
	// One partial window of 0.5 s fully busy: 0.5 * 110 J.
	if math.Abs(m.Joules()-55) > 1e-9 {
		t.Fatalf("partial-window energy = %v, want 55", m.Joules())
	}
}

func TestMeterHalfUtilization(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 100)
	m := NewMeter(eng, cpu, Linear{Idle: 0, Peak: 100}, 0)
	m.tracing = true
	eng.Go("load", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			cpu.Process(p, 50) // 0.5 s busy
			p.Hold(0.5)        // 0.5 s idle
		}
	})
	eng.Run()
	m.Stop()
	if got := avgUtil(t, m); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("avg util = %v, want 0.5", got)
	}
	if m.Seconds() != 10 {
		t.Fatalf("metered %v s, want 10", m.Seconds())
	}
	if got := m.Joules() / m.Seconds(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("avg watts = %v, want 50", got)
	}
}

func TestMeterTrace(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1)
	m := NewMeter(eng, cpu, Constant{W: 42}, 0)
	m.tracing = true
	eng.Go("idle", func(p *sim.Proc) { p.Hold(3) })
	eng.Run()
	m.Stop()
	if len(m.trace) != 3 {
		t.Fatalf("trace has %d samples, want 3", len(m.trace))
	}
}

func TestNormalizeAndEDP(t *testing.T) {
	ref := Point{Label: "16N", Seconds: 100, Joules: 1000}
	pts := []Point{
		ref,
		{Label: "8N", Seconds: 156, Joules: 820}, // Fig 1(a)-like: above EDP line
	}
	norm := Normalize(pts, ref)
	if norm[0].NormPerf != 1 || norm[0].NormEnerg != 1 {
		t.Fatalf("reference not (1,1): %+v", norm[0])
	}
	p8 := norm[1]
	if math.Abs(p8.NormPerf-100.0/156) > 1e-9 {
		t.Fatalf("8N perf = %v", p8.NormPerf)
	}
	if math.Abs(p8.NormEnerg-0.82) > 1e-9 {
		t.Fatalf("8N energy = %v", p8.NormEnerg)
	}
	// 0.82 energy at 0.641 performance: normEDP = 1.279 > 1 => above line.
	if p8.BelowEDPLine(0.01) {
		t.Fatal("8N point should be above the EDP line")
	}
	below := Point{NormPerf: 0.75, NormEnerg: 0.5}
	if !below.BelowEDPLine(0.01) {
		t.Fatal("(0.75, 0.5) should be below the EDP line")
	}
}

// Property: normalized EDP < 1 iff raw EDP < reference EDP.
func TestEDPConsistencyProperty(t *testing.T) {
	f := func(s16, j16 uint16) bool {
		ref := Point{Seconds: 100, Joules: 1000}
		p := Point{Seconds: 1 + float64(s16%500), Joules: 1 + float64(j16%5000)}
		norm := Normalize([]Point{p}, ref)[0]
		rawBelow := p.Joules*p.Seconds < ref.Joules*ref.Seconds
		normBelow := norm.NormEDP() < 1
		return rawBelow == normBelow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
