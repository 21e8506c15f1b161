package pstore

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestJoinWorkOutOfRange: a negative, NaN or infinite JoinWork is refused
// before anything runs. A finite cost so large that a batch's charge
// overflows to +Inf panics the CPU server that books it, naming it; one
// whose charge is finite but ends beyond sim.MaxTime panics the process
// that books it. None of them may hang: an +Inf completion time once
// sent the run, and then the meters, to t = +Inf, and a completion near
// 1e292 s made the meters walk one window per virtual second.
func TestJoinWorkOutOfRange(t *testing.T) {
	build, probe := smallDefs(false)
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}
	for _, tc := range []struct {
		work      float64
		wantErr   string // from Validate, before the simulation starts
		wantPanic string // from the server, mid-run
	}{
		{work: -1, wantErr: "join work must be finite and >= 0, got -1"},
		{work: math.NaN(), wantErr: "got NaN"},
		{work: math.Inf(1), wantErr: "got +Inf"},
		{work: 1e308, wantPanic: `server "n0.cpu" invalid work +Inf`},
		{work: 1e300, wantPanic: "MaxTime"},
	} {
		t.Run(fmt.Sprint(tc.work), func(t *testing.T) {
			cfg := cfgSmall()
			cfg.JoinWork = tc.work
			c := newCluster(t, 2)
			done := make(chan string, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Sprint("panic: ", r)
					}
				}()
				_, _, err := RunJoin(c, cfg, spec)
				done <- fmt.Sprint("error: ", err)
			}()
			var got string
			select {
			case got = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("join did not return within 20 s")
			}
			switch {
			case tc.wantErr != "" && !(strings.HasPrefix(got, "error: ") && strings.Contains(got, tc.wantErr)):
				t.Fatalf("got %q, want an error mentioning %q", got, tc.wantErr)
			case tc.wantPanic != "" && !(strings.HasPrefix(got, "panic: ") && strings.Contains(got, tc.wantPanic)):
				t.Fatalf("got %q, want a panic mentioning %q", got, tc.wantPanic)
			}
		})
	}
}
