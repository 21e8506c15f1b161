package sim

import (
	"fmt"
	"math"
)

// Server is a first-come-first-served rate server: a resource that
// processes work measured in abstract units (we use bytes) at a fixed
// rate (units/second). It models a node's CPU (units = bytes of tuple
// data pushed through operators, rate = the paper's C_B/C_W "maximum CPU
// bandwidth"), its disk subsystem (rate = I), and each NIC port
// direction (rate = L).
//
// Jobs are serialized: a job submitted at time t with size s completes at
// max(t, lastCompletion) + s/rate. The server keeps no busy history: it
// reports each booking with positive duration to its observer, if one is
// set (a power meter), and otherwise records nothing.
type Server struct {
	eng     *Engine
	name    string
	rate    float64 // units per second
	free    Time    // time at which the server next becomes idle
	observe func(start, end Time)

	busyTotal float64 // cumulative busy seconds ever booked
	unitsDone float64 // cumulative units processed
}

// NewServer creates a rate server. Rate must be positive.
func NewServer(eng *Engine, name string, rate float64) *Server {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: server %q rate %v must be positive", name, rate))
	}
	return &Server{eng: eng, name: name, rate: rate}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Rate returns the service rate in units/second.
func (s *Server) Rate() float64 { return s.rate }

// book reserves service for size units and returns the completion time.
func (s *Server) book(size float64) Time {
	dur := size / s.rate
	if !(size >= 0 && dur <= math.MaxFloat64) { // rejects NaN, +Inf and an overflowing duration
		panic(fmt.Sprintf("sim: server %q invalid work %v at t=%v", s.name, size, s.eng.now))
	}
	start := s.eng.now
	if s.free > start {
		start = s.free
	}
	end := start + dur
	s.free = end
	s.busyTotal += dur
	s.unitsDone += size
	if dur > 0 && s.observe != nil {
		s.observe(start, end)
	}
	return end
}

// Observe registers fn to receive every booking with positive duration as
// its busy interval [start, end), in booking order. Bookings never start
// before the engine's current time, nor before an earlier booking ends.
// A server has at most one observer.
func (s *Server) Observe(fn func(start, end Time)) {
	if s.observe != nil {
		panic(fmt.Sprintf("sim: server %q already observed", s.name))
	}
	s.observe = fn
}

// Process submits size units of work and blocks the calling process until
// the work completes (FCFS behind earlier jobs).
func (s *Server) Process(p *Proc, size float64) {
	end := s.book(size)
	if end > p.eng.now {
		p.HoldUntil(end)
	} else {
		p.Hold(0)
	}
}

// ProcessAsync books size units of work without blocking; the work
// occupies the server (delaying later jobs) and fn, if non-nil, runs at
// completion. Used for fire-and-forget charging (e.g. charging CPU for
// work that overlaps another resource).
func (s *Server) ProcessAsync(size float64, fn func()) {
	end := s.book(size)
	if fn != nil {
		s.eng.At(end, fn)
	}
}

// SetRate changes the service rate for work booked from now on. Work
// already booked keeps the completion time it was given — a rate change
// mid-queue models the scheduler's view (new arrivals see the degraded
// hardware), not a re-plan of in-flight instructions. The fault plane
// uses this for straggler episodes: a node's servers run at rate/factor
// for the episode, then are restored. Rate must stay positive and
// finite; the zero-rate case is a stall, not a rate (see StallUntil).
func (s *Server) SetRate(rate float64) {
	if !(rate > 0) || rate > maxRate {
		panic(fmt.Sprintf("sim: server %q rate %v must be positive and finite", s.name, rate))
	}
	s.rate = rate
}

// maxRate bounds SetRate against Inf (and, via the !(rate>0) check
// above, NaN): an infinite rate would make every booking complete
// instantly and break busy-interval accounting.
const maxRate = 1e300

// StallUntil makes the server unavailable until absolute virtual time t:
// work booked from now on starts no earlier than t (behind whatever was
// already queued). The stall books no busy time — the server is down,
// not working — so power meters see the interval as idle. The fault
// plane uses this for crash downtime.
func (s *Server) StallUntil(t Time) {
	if t > s.free {
		s.free = t
	}
}

// FreeAt returns the time at which currently queued work finishes.
func (s *Server) FreeAt() Time { return s.free }

// BusySeconds returns total busy time ever booked (including future
// bookings not yet elapsed).
func (s *Server) BusySeconds() float64 { return s.busyTotal }

// UnitsProcessed returns total units ever booked.
func (s *Server) UnitsProcessed() float64 { return s.unitsDone }
