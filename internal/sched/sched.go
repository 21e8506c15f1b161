// Package sched holds the release policies that decide when an admitted
// query starts: the delayed-execution idea Section 2 surveys (delaying
// execution of workloads due to energy concerns [20, 23]). The service
// applies one to every request it admits (`serve -window`).
//
//   - Immediate: launch each query the moment it arrives.
//   - Batched(window): hold arrivals and release them together every
//     `window` seconds, so concurrent queries compress the cluster's
//     busy period at the cost of queueing latency.
package sched

import (
	"fmt"
	"math"
)

// Policy releases queries to the engine.
type Policy interface {
	// ReleaseAt maps a query's arrival time to its launch time.
	ReleaseAt(arrival float64) float64
	String() string
}

// Immediate launches every query at its arrival time.
type Immediate struct{}

// ReleaseAt implements Policy.
func (Immediate) ReleaseAt(arrival float64) float64 { return arrival }

func (Immediate) String() string { return "immediate" }

// Batched releases queries at the next multiple of Window after their
// arrival (arrivals exactly on a boundary run at that boundary).
type Batched struct{ Window float64 }

// ReleaseAt implements Policy.
func (b Batched) ReleaseAt(arrival float64) float64 {
	if b.Window <= 0 {
		return arrival
	}
	return math.Ceil(arrival/b.Window) * b.Window
}

func (b Batched) String() string { return fmt.Sprintf("batched(%.0fs)", b.Window) }
