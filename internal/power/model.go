// Package power implements the server power modelling methodology of
// Lang et al. (VLDB 2012), Sections 3.1 and 5:
//
//   - parametric power models mapping CPU utilization to system watts
//     (power-law, exponential, logarithmic, linear), matching the paper's
//     "we explored exponential, power, and logarithmic regression models,
//     and picked the one with the best R² value";
//   - least-squares fitting of those models to (utilization, watts)
//     samples, as produced by an iLO2- or WattsUp-style meter;
//   - a 1 Hz virtual-time energy meter that samples per-node CPU
//     utilization from the simulation and integrates f(util) over time;
//   - Energy-Delay-Product (EDP) helpers used by every figure.
package power

import (
	"fmt"
	"math"
)

// Model maps CPU utilization (0..1, where 1 = fully busy) to system
// power in watts.
type Model interface {
	// Watts returns the modelled full-system power draw at utilization u.
	// Implementations clamp u into [0, 1].
	Watts(u float64) float64
	// String describes the fitted functional form.
	String() string
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// PowerLaw is the paper's preferred form: Watts = A * (100*u)^B.
// Table 1's cluster-V model is 130.03*C^0.2369 with C the CPU utilization
// in percent; Table 3 gives f_B(c)=130.03*(100c)^0.2369 and
// f_W(c)=10.994*(100c)^0.2875.
type PowerLaw struct {
	A, B float64
	// Floor is the minimum utilization fed to the curve. The paper
	// evaluates f at G + U/C where G is the engine's inherent utilization
	// constant, so its curves are never evaluated near zero; Floor guards
	// standalone uses against the u->0 singularity of the power law
	// (a power law through the origin would imply 0 W idle, which no
	// server achieves).
	Floor float64
}

// Watts implements Model.
func (m PowerLaw) Watts(u float64) float64 {
	u = clamp01(u)
	if u < m.Floor {
		u = m.Floor
	}
	if u <= 0 {
		return 0
	}
	return m.A * math.Pow(100*u, m.B)
}

func (m PowerLaw) String() string {
	return fmt.Sprintf("%.4g*(100u)^%.4g", m.A, m.B)
}

// Exponential models Watts = A * e^(B*u).
type Exponential struct{ A, B float64 }

// Watts implements Model.
func (m Exponential) Watts(u float64) float64 {
	return m.A * math.Exp(m.B*clamp01(u))
}

func (m Exponential) String() string { return fmt.Sprintf("%.4g*e^(%.4g*u)", m.A, m.B) }

// Logarithmic models Watts = A + B*ln(100*u + 1).
type Logarithmic struct{ A, B float64 }

// Watts implements Model.
func (m Logarithmic) Watts(u float64) float64 {
	return m.A + m.B*math.Log(100*clamp01(u)+1)
}

func (m Logarithmic) String() string { return fmt.Sprintf("%.4g+%.4g*ln(100u+1)", m.A, m.B) }

// Linear models Watts = Idle + (Peak-Idle)*u. It is the standard
// energy-proportionality baseline (Barroso & Hölzle) and is used for the
// synthesized single-node systems of Table 2 where the paper reports only
// idle watts and Figure 6 coordinates.
type Linear struct{ Idle, Peak float64 }

// Watts implements Model.
func (m Linear) Watts(u float64) float64 {
	return m.Idle + (m.Peak-m.Idle)*clamp01(u)
}

func (m Linear) String() string { return fmt.Sprintf("%.4g+(%.4g-%.4g)*u", m.Idle, m.Peak, m.Idle) }
