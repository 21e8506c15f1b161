package pstore

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrNodeDown marks a launch refused because a cluster node is crashed;
// the query is retryable once the node restarts.
var ErrNodeDown = errors.New("node down")

// ErrQueryTimeout marks a query aborted by its deadline watchdog.
var ErrQueryTimeout = errors.New("query timeout")

// Abort cancels an in-flight join cooperatively: operators observe the
// flag at their next batch boundary, stop doing join work, and run the
// normal end-of-stream drain so every cursor closes and every mailbox
// protocol completes — no leaked resources, no deadlock. Done still
// fires when the drain finishes (with Err set to reason), which is what
// a retry driver waits on before relaunching. Aborting a completed or
// already-aborted query is a no-op.
func (h *Handle) Abort(reason error) {
	if h.aborted || h.Done.Fired() {
		return
	}
	h.aborted = true
	if h.Err == nil {
		h.Err = reason
	}
}

// AbortInFlight aborts every launched-but-unfinished query on the
// engine, in launch order, and returns how many were newly aborted. The
// fault injector's crash hooks call this: every join scans every node,
// so any node crash voids all in-flight queries.
func (e *Exec) AbortInFlight(reason error) int {
	n := 0
	for _, h := range e.inflight {
		if !h.aborted && !h.Done.Fired() {
			h.Abort(reason)
			n++
		}
	}
	return n
}

// OpenCursors returns the number of live scan cursors — zero once all
// launched queries have drained, aborted or not. Leak accounting for
// tests and the fault plane's invariant checks.
func (e *Exec) OpenCursors() int { return e.openCursors }

// RetryPolicy bounds query-level failure recovery.
type RetryPolicy struct {
	// Timeout aborts an attempt after this many virtual seconds;
	// 0 means no deadline.
	Timeout float64
	// MaxRetries bounds relaunches after the first attempt (default 4).
	MaxRetries int
	// Backoff is the first retry delay in virtual seconds (default
	// 0.25); each subsequent delay doubles, capped at BackoffCap
	// (default 4).
	Backoff    float64
	BackoffCap float64
}

func (pol RetryPolicy) withDefaults() RetryPolicy {
	if pol.MaxRetries <= 0 {
		pol.MaxRetries = 4
	}
	if pol.Backoff <= 0 {
		pol.Backoff = 0.25
	}
	if pol.BackoffCap <= 0 {
		pol.BackoffCap = 4
	}
	return pol
}

// RunWithRetry executes one join query from the calling driver process
// with failure detection and capped exponential backoff. Each attempt:
//
//   - re-enters LaunchJoin admission (the down-node check), so a
//     refused launch is itself a retryable failure;
//   - is watched by a deadline event that aborts it at Timeout — the
//     straggler defense: a query limping on degraded hardware is killed
//     and relaunched rather than waited out;
//   - waits for Done, which fires on success and on abort (after the
//     cooperative drain), never leaving resources behind.
//
// Retry attempts run as "<id>.a1", "<id>.a2", … so traces and caches
// distinguish them. Returns the result, the number of retries consumed
// (0 = first attempt succeeded), and the final error once the budget is
// exhausted.
func (e *Exec) RunWithRetry(p *sim.Proc, id string, spec JoinSpec, pol RetryPolicy) (JoinResult, int, error) {
	pol = pol.withDefaults()
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		aid := id
		if attempt > 0 {
			aid = fmt.Sprintf("%s.a%d", id, attempt)
		}
		h, err := e.LaunchJoin(aid, spec)
		if err != nil {
			lastErr = err
		} else {
			if pol.Timeout > 0 {
				timeout := pol.Timeout
				p.Engine().At(p.Now()+sim.Time(timeout), func() {
					h.Abort(fmt.Errorf("pstore: %w after %gs (attempt %d)", ErrQueryTimeout, timeout, attempt))
				})
			}
			h.Done.Wait(p)
			if h.Err == nil {
				return h.Result, attempt, nil
			}
			lastErr = h.Err
		}
		if attempt < pol.MaxRetries {
			p.Hold(backoff)
			backoff *= 2
			if backoff > pol.BackoffCap {
				backoff = pol.BackoffCap
			}
		}
	}
	return JoinResult{}, pol.MaxRetries, fmt.Errorf("pstore: query %s failed after %d attempts: %w",
		id, pol.MaxRetries+1, lastErr)
}
