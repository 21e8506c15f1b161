package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestMeterBusyTracking: busy [1,3), idle [3,5), busy [5,6) on a meter
// with no utilization floor samples exactly those per-second fractions.
func TestMeterBusyTracking(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 10)
	m := NewMeter(eng, cpu, Linear{Idle: 0, Peak: 100}, 0)
	m.tracing = true
	eng.Go("a", func(p *sim.Proc) {
		p.Hold(1)
		cpu.Process(p, 20) // busy [1,3)
		p.Hold(2)          // idle [3,5)
		cpu.Process(p, 10) // busy [5,6)
	})
	eng.Run()
	m.Stop()
	assertUtils(t, m, []float64{0, 1, 1, 0, 0, 1})
	if got := m.Joules(); math.Abs(got-300) > 1e-9 {
		t.Fatalf("energy = %v J, want 300", got)
	}
}

// TestMeterStallIsIdle: a stalled server delays work without booking
// busy time, so the meter sees the outage as idle.
func TestMeterStallIsIdle(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 100)
	m := NewMeter(eng, cpu, Linear{Idle: 0, Peak: 100}, 0)
	m.tracing = true
	eng.Go("a", func(p *sim.Proc) {
		cpu.StallUntil(4)
		cpu.Process(p, 100) // starts at 4, completes at 5
	})
	eng.Run()
	m.Stop()
	assertUtils(t, m, []float64{0, 0, 0, 0, 1})
}

// TestMeterPrunesAsTimePasses: half-duty work over 100 s integrates to
// 50 busy seconds. When the run ends the meter holds only the jobs of its
// last two windows (the one ending at the last booking is still open),
// and after Stop nothing.
func TestMeterPrunesAsTimePasses(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1)
	m := NewMeter(eng, cpu, Linear{Idle: 0, Peak: 100}, 0)
	eng.Go("a", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			cpu.Process(p, 0.5)
			p.Hold(0.5)
		}
	})
	eng.Run()
	if len(m.segs) > 2 {
		t.Fatalf("intervals not pruned: %d remain", len(m.segs))
	}
	m.Stop()
	if len(m.segs) != 0 {
		t.Fatalf("%d intervals remain after Stop", len(m.segs))
	}
	if got := m.AvgUtil() * float64(100); math.Abs(got-50) > 1e-6 {
		t.Fatalf("windowed busy sum = %v, want 50", got)
	}
}

func assertUtils(t *testing.T, m *Meter, want []float64) {
	t.Helper()
	s := m.trace
	if len(s) != len(want) {
		t.Fatalf("%d samples, want %d", len(s), len(want))
	}
	for i, w := range want {
		if math.Abs(s[i].Util-w) > 1e-9 {
			t.Fatalf("window %d util = %v, want %v", i, s[i].Util, w)
		}
	}
}

// TestMeterRetentionIsBounded: over 10 000 virtual seconds of separate
// jobs the meter holds only the intervals that reach into its open
// window, never the run's history.
func TestMeterRetentionIsBounded(t *testing.T) {
	eng := sim.New()
	cpu := sim.NewServer(eng, "cpu", 1)
	m := NewMeter(eng, cpu, Linear{Idle: 0, Peak: 100}, 0)
	most := 0
	eng.Go("a", func(p *sim.Proc) {
		for p.Now() < 10_000 {
			cpu.Process(p, 0.1)
			p.Hold(0.2) // a gap: no two jobs merge
			for _, sg := range m.segs {
				if sg.end <= m.lastTick {
					t.Fatalf("t=%v: holds [%v,%v), which ends before the open window at %v", p.Now(), sg.start, sg.end, m.lastTick)
				}
			}
			most = max(most, cap(m.segs))
		}
	})
	eng.Run()
	m.Stop()
	// A 1-second window overlaps at most 5 jobs of this 0.3 s cycle.
	if most > 8 {
		t.Fatalf("meter grew its interval list to %d over the run", most)
	}
	if got, want := m.AvgUtil(), 1.0/3; math.Abs(got-want) > 1e-3 {
		t.Fatalf("avg util = %v, want %v", got, want)
	}
}

// BenchmarkMeteredRun books an hour of separate jobs on a metered CPU;
// B/op is what metering retains and churns for a run of that length.
func BenchmarkMeteredRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		cpu := sim.NewServer(eng, "cpu", 1)
		m := NewMeter(eng, cpu, clusterV, 0.25)
		eng.Go("load", func(p *sim.Proc) {
			for p.Now() < 3600 {
				cpu.Process(p, 0.1)
				p.Hold(0.2)
			}
		})
		eng.Run()
		m.Stop()
	}
}

// lazyMeter is the meter as it was before it integrated during the run:
// busy intervals are kept until Sync, which then integrates every window
// up to now at once. It is the reference the online Meter must match bit
// for bit.
type lazyMeter struct {
	eng   *sim.Engine
	model Model
	g     float64

	segs                     []interval
	joules, seconds, utilSum float64
	samples                  int
	lastTick                 sim.Time
	stopped                  bool
	trace                    []Sample
}

func newLazyMeter(eng *sim.Engine, cpu *sim.Server, model Model, g float64) *lazyMeter {
	m := &lazyMeter{eng: eng, model: model, g: g}
	cpu.Observe(func(start, end sim.Time) {
		if n := len(m.segs); n > 0 && m.segs[n-1].end >= start {
			m.segs[n-1].end = end
		} else {
			m.segs = append(m.segs, interval{start, end})
		}
	})
	return m
}

func (m *lazyMeter) busyBetween(a, b sim.Time) float64 {
	busy := 0.0
	for _, sg := range m.segs {
		if sg.end <= a {
			continue
		}
		if sg.start >= b {
			break
		}
		lo, hi := sg.start, sg.end
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		busy += hi - lo
	}
	return busy
}

func (m *lazyMeter) consumeBusyUpTo(upto sim.Time, window float64) float64 {
	busy := m.busyBetween(upto-window, upto)
	i := 0
	for i < len(m.segs) && m.segs[i].end <= upto {
		i++
	}
	if i > 0 {
		m.segs = append(m.segs[:0], m.segs[i:]...)
	}
	return busy
}

func (m *lazyMeter) window(upto sim.Time, width float64) {
	busy := m.consumeBusyUpTo(upto, width)
	util := 1.0
	if width > 1e-12 {
		util = m.g + busy/width
		if util > 1 {
			util = 1
		}
	}
	w := m.model.Watts(util)
	m.joules += float64(w * width)
	m.seconds += width
	m.utilSum += util
	m.samples++
	m.lastTick = upto
	m.trace = append(m.trace, Sample{Util: util, Watts: w})
}

func (m *lazyMeter) Sync() {
	if m.stopped {
		return
	}
	now := m.eng.Now()
	for m.lastTick+1 <= now {
		m.window(m.lastTick+1, 1)
	}
	if now > m.lastTick {
		m.window(now, now-m.lastTick)
	}
}

func (m *lazyMeter) Stop() {
	if m.stopped {
		return
	}
	m.Sync()
	m.stopped = true
}

// meterScript drives one seeded random CPU workload: adjacent jobs and
// gaps, times on a 0.25 s grid (so merges land exactly on window edges)
// and off it, zero-size jobs, stalls, mid-run syncs, and asynchronous
// jobs that run past the final stop.
func meterScript(seed int64, eng *sim.Engine, cpu *sim.Server, sync func()) {
	rng := rand.New(rand.NewSource(seed))
	dur := func() float64 { // seconds: zero, on the grid, or off it
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1, 2:
			return 0.25 * float64(rng.Intn(8))
		default:
			return rng.Float64() * 2.5
		}
	}
	eng.Go("script", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			switch rng.Intn(7) {
			case 0, 1:
				cpu.Process(p, dur()*cpu.Rate())
			case 2:
				cpu.ProcessAsync(dur()*cpu.Rate(), nil)
			case 3:
				p.Hold(dur())
			case 4:
				cpu.StallUntil(p.Now() + dur())
			case 5:
				sync()
				if rng.Intn(2) == 0 { // ends on the next window edge, unless queued
					cpu.Process(p, cpu.Rate())
				}
			default:
				cpu.ProcessAsync(dur()*cpu.Rate(), func() {})
			}
		}
		cpu.ProcessAsync(rng.Float64()*10*cpu.Rate(), nil) // runs past the stop
	})
}

// TestMeterMatchesLazyReference: integrating each window as soon as
// virtual time passes it yields, bit for bit, what integrating the whole
// run at the end did — joules, seconds, utilization and every traced
// sample — across seeded scripts, with and without the ILO2 wrapper.
func TestMeterMatchesLazyReference(t *testing.T) {
	model := PowerLaw{A: 130.03, B: 0.2369}
	for seed := int64(1); seed <= 300; seed++ {
		rate := []float64{4, 100, 1e9 / 3}[seed%3]
		g := []float64{0, 0.25}[seed/3%2] // with no floor, util rarely clamps to 1

		engL := sim.New()
		cpuL := sim.NewServer(engL, "cpu", rate)
		ref := newLazyMeter(engL, cpuL, model, g)
		meterScript(seed, engL, cpuL, ref.Sync)
		engL.Run()
		ref.Stop()

		eng := sim.New()
		cpu := sim.NewServer(eng, "cpu", rate)
		var m *Meter
		var sync func()
		if seed%2 == 0 {
			ilo := NewILO2Meter(eng, cpu, model, g)
			m, sync = ilo.inner, ilo.Sync
		} else {
			m = NewMeter(eng, cpu, model, g)
			sync = m.Sync
		}
		m.tracing = true
		meterScript(seed, eng, cpu, sync)
		eng.Run()
		m.Stop()

		where := fmt.Sprintf("seed %d (stop at t=%v)", seed, eng.Now())
		if eng.Now() != engL.Now() {
			t.Fatalf("%s: the two runs stopped at %v and %v", where, eng.Now(), engL.Now())
		}
		sameBits(t, where+" joules", m.Joules(), ref.joules)
		sameBits(t, where+" seconds", m.Seconds(), ref.seconds)
		sameBits(t, where+" seconds against the stop time", m.Seconds(), eng.Now())
		sameBits(t, where+" avg util", m.AvgUtil(), ref.utilSum/float64(ref.samples))
		if len(m.trace) != len(ref.trace) {
			t.Fatalf("%s: %d samples, reference %d", where, len(m.trace), len(ref.trace))
		}
		for i, s := range m.trace {
			sameBits(t, fmt.Sprintf("%s sample %d util", where, i), s.Util, ref.trace[i].Util)
			sameBits(t, fmt.Sprintf("%s sample %d watts", where, i), s.Watts, ref.trace[i].Watts)
		}
	}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}
