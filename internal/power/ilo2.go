package power

import "repro/internal/sim"

// ILO2Meter reproduces the measurement instrument of Section 3.1: HP's
// iLO2 remote management interface, which "reports measurements averaged
// over a 5 minute window". The paper ran three windows per calibration
// level and averaged them. This meter wraps the 1 Hz integration with
// 5-minute reporting granularity so calibration code can follow the
// paper's procedure literally.
type ILO2Meter struct {
	inner  *Meter
	window float64

	reports []float64 // average watts per completed 5-minute window
	lastJ   float64
	lastT   float64
}

// NewILO2Meter attaches an iLO2-style meter (5-minute reporting windows)
// to a CPU server.
func NewILO2Meter(eng *sim.Engine, cpu *sim.Server, model Model, g float64) *ILO2Meter {
	return &ILO2Meter{inner: NewMeter(eng, cpu, model, g), window: 300}
}

// Sync integrates up to the current virtual time and closes any completed
// 5-minute windows into reports.
func (m *ILO2Meter) Sync() {
	m.inner.Sync()
	for m.inner.Seconds()-m.lastT >= m.window {
		// Average watts over the completed window. The inner meter
		// integrates continuously; we take the joules delta.
		endT := m.lastT + m.window
		frac := (endT - m.lastT) / (m.inner.Seconds() - m.lastT)
		j := m.lastJ + (m.inner.Joules()-m.lastJ)*frac
		m.reports = append(m.reports, (j-m.lastJ)/m.window)
		m.lastJ, m.lastT = j, endT
	}
}

// Reports returns the completed 5-minute window averages (watts).
func (m *ILO2Meter) Reports() []float64 {
	m.Sync()
	return m.reports
}

// AverageOfWindows returns the mean of the last n completed reports —
// the paper's "average of the three readings" calibration step.
func (m *ILO2Meter) AverageOfWindows(n int) float64 {
	r := m.Reports()
	if n <= 0 || len(r) == 0 {
		return 0
	}
	if n > len(r) {
		n = len(r)
	}
	sum := 0.0
	for _, w := range r[len(r)-n:] {
		sum += w
	}
	return sum / float64(n)
}

// Stop finalizes the underlying meter.
func (m *ILO2Meter) Stop() { m.Sync(); m.inner.Stop() }
