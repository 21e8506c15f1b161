package pstore

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestJoinWorkOutOfRange: a negative, NaN or infinite JoinWork is refused
// before anything runs, by RunJoin and RunAggregate alike. A finite cost
// so large that a batch's charge overflows to +Inf panics the CPU server
// that books it, naming it. None of them may hang: an +Inf completion
// time once sent the run, and then the meters, to t = +Inf.
func TestJoinWorkOutOfRange(t *testing.T) {
	build, probe := smallDefs(false)
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}
	agg := AggSpec{Table: probe, Sel: 0.05}
	for _, tc := range []struct {
		work      float64
		wantErr   string // from Validate, before the simulation starts
		wantPanic string // from the server, mid-run
	}{
		{work: -1, wantErr: "join work must be finite and >= 0, got -1"},
		{work: math.NaN(), wantErr: "got NaN"},
		{work: math.Inf(1), wantErr: "got +Inf"},
		{work: 1e308, wantPanic: `server "n0.cpu" invalid work +Inf`},
	} {
		t.Run(fmt.Sprint(tc.work), func(t *testing.T) {
			cfg := cfgSmall()
			cfg.JoinWork = tc.work
			cj, ca := newCluster(t, 2), newCluster(t, 2)
			done := make(chan string, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Sprint("panic: ", r)
					}
				}()
				_, _, err := RunJoin(cj, cfg, spec)
				if _, _, aerr := RunAggregate(ca, cfg, agg); (aerr == nil) != (err == nil) {
					done <- fmt.Sprintf("RunJoin error %v, RunAggregate error %v", err, aerr)
					return
				}
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
