// Package sim is a nodeterm fixture: its path ends in "sim", so it is
// treated as simulated code where nondeterminism sources are forbidden.
package sim

import (
	"math/rand"
	"os"
	"time"
)

// Engine mimics the DES engine so the maporder fixture can exercise
// the schedules-DES-work detection against a package named sim.
type Engine struct{}

// Go mimics process spawning.
func (e *Engine) Go(name string, f func()) {}

// Task mimics a stackless process, which the cursorclose fixture's
// task-form cursors are pulled by.
type Task struct{}

func Clock() int64 {
	return time.Now().UnixNano() // want `wall-clock source time\.Now`
}

func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock source time\.Since`
}

func Nap() {
	time.Sleep(time.Millisecond) // want `wall-clock source time\.Sleep`
}

func Draw() int {
	return rand.Intn(10) // want `global math/rand source rand\.Intn`
}

// DrawSeeded is fine: an explicitly seeded generator is reproducible.
func DrawSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func Verbose() bool {
	v, ok := os.LookupEnv("VERBOSE") // want `environment read os\.LookupEnv`
	return ok && v != ""
}

func Spawn(f func()) {
	go f() // want `goroutine spawned in simulated code`
}

// SpawnJustified carries a justified suppression: no diagnostic.
func SpawnJustified(f func()) {
	//lint:deterministic fixture: the body is a pure logger, ordering cannot affect simulated state
	go f()
}

func Pick(a, b chan int) int {
	select { // want `select over 2 channels`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// PollOne is fine: a single comm clause plus default has no race
// between ready channels.
func PollOne(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// Bare carries a suppression with no justification: it does not
// suppress, and is itself reported.
func Bare(f func()) {
	//lint:deterministic
	go f() // want `goroutine spawned` @-1 `requires a justification`
}
