package power

import (
	"repro/internal/sim"
)

// Meter integrates the energy drawn by one node over virtual time,
// reproducing the measurement discipline of the paper: the WattsUp Pro
// meters sample at 1 Hz (±1.5%), and iLO2 reports 5-minute averages. The
// meter divides virtual time into 1-second windows, computes the node's
// CPU busy-fraction per window, maps it through the node's power model
// (adding the engine's inherent utilization floor G, as in f(G + U/C)),
// and accumulates watt-seconds.
//
// The meter observes its CPU server's bookings and keeps their busy
// intervals itself. A window is integrated at the first booking after
// virtual time has passed its end: no later booking can start before the
// current time, so the window's busy time is final, and the intervals it
// covers are dropped. The meter therefore holds only the intervals of its
// open window, and schedules no simulation events of its own (a live
// periodic tick would keep the event loop alive forever). Sync and Stop
// integrate the rest, ending with one trailing partial window.
type Meter struct {
	eng      *sim.Engine
	model    Model
	g        float64 // engine inherent utilization constant (G_B / G_W)
	interval float64

	joules   float64
	seconds  float64
	utilSum  float64
	samples  int
	lastTick sim.Time
	stopped  bool
	// When tracing, trace records every window's (utilization, watts)
	// sample; the package's tests set it to check the integration.
	trace   []Sample
	tracing bool

	// Busy intervals not yet integrated: sorted, non-overlapping, merged
	// when adjacent. Each window drops those that end at or before it.
	segs []interval
}

type interval struct{ start, end sim.Time }

// NewMeter attaches a 1 Hz meter to a CPU server, which must not have
// booked work yet. g is the inherent engine utilization constant (the
// paper's G_B=0.25, G_W=0.13); model is the node's fitted power curve.
func NewMeter(eng *sim.Engine, cpu *sim.Server, model Model, g float64) *Meter {
	m := &Meter{eng: eng, model: model, g: g, interval: 1.0}
	cpu.Observe(m.book)
	return m
}

// book records one CPU busy interval, first integrating every full window
// that ends before now. A window ending exactly now stays open: a booking
// at now may still extend the interval that ends there.
func (m *Meter) book(start, end sim.Time) {
	if m.stopped {
		return
	}
	now := m.eng.Now()
	for m.lastTick+m.interval < now {
		m.window(m.lastTick+m.interval, m.interval)
	}
	if n := len(m.segs); n > 0 && m.segs[n-1].end >= start {
		m.segs[n-1].end = end
	} else {
		m.segs = append(m.segs, interval{start, end})
	}
}

// busyBetween returns the busy seconds overlapping window [a, b).
func (m *Meter) busyBetween(a, b sim.Time) float64 {
	busy := 0.0
	for _, sg := range m.segs {
		if sg.end <= a {
			continue
		}
		if sg.start >= b {
			break
		}
		busy += min(sg.end, b) - max(sg.start, a)
	}
	return busy
}

// window integrates one window ending at upto of the given width.
func (m *Meter) window(upto sim.Time, width float64) {
	busy := m.busyBetween(upto-width, upto)
	i := 0
	for i < len(m.segs) && m.segs[i].end <= upto {
		i++
	}
	if i > 0 {
		m.segs = append(m.segs[:0], m.segs[i:]...)
	}
	util := 1.0
	if width > 1e-12 {
		util = m.g + busy/width
		if util > 1 {
			util = 1
		}
	}
	w := m.model.Watts(util)
	m.joules += float64(w * width) // rounded product: never fused into the sum
	m.seconds += width
	m.utilSum += util
	m.samples++
	m.lastTick = upto
	if m.tracing {
		m.trace = append(m.trace, Sample{Util: util, Watts: w})
	}
}

// Sync integrates all complete (and one trailing partial) windows up to
// the current virtual time.
func (m *Meter) Sync() {
	if m.stopped {
		return
	}
	now := m.eng.Now()
	for m.lastTick+m.interval <= now {
		m.window(m.lastTick+m.interval, m.interval)
	}
	if now > m.lastTick {
		m.window(now, now-m.lastTick)
	}
}

// Stop finalizes the meter at the current virtual time.
func (m *Meter) Stop() {
	if m.stopped {
		return
	}
	m.Sync()
	m.stopped = true
}

// Joules returns the energy integrated so far.
func (m *Meter) Joules() float64 { return m.joules }

// Seconds returns the metered duration.
func (m *Meter) Seconds() float64 { return m.seconds }

// AvgWatts returns average power over the metered duration.
func (m *Meter) AvgWatts() float64 {
	if m.seconds == 0 {
		return 0
	}
	return m.joules / m.seconds
}

// AvgUtil returns the average sampled utilization (including the G floor).
func (m *Meter) AvgUtil() float64 {
	if m.samples == 0 {
		return 0
	}
	return m.utilSum / float64(m.samples)
}
