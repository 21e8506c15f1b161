package pstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// phantomSpec is a paper-scale (count-accounted) dual-shuffle join big
// enough that a mid-flight event lands inside the query.
func phantomSpec() JoinSpec {
	return JoinSpec{
		Build: storage.TableDef{Table: tpch.Orders, SF: 10, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "O_CUSTKEY"},
		Probe: storage.TableDef{Table: tpch.Lineitem, SF: 10, Width: tpch.Q3ProjectedWidth,
			Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE"},
		BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle,
	}
}

// TestAbortDrainsWithoutLeaks: aborting a join mid-flight still fires
// Done (after the cooperative drain), sets Err, and leaves no open
// cursors or in-flight handles — on cold scans, where abort must also
// stop the disk pumps.
func TestAbortDrainsWithoutLeaks(t *testing.T) {
	c := newCluster(t, 4)
	e := New(c, Config{BatchRows: 50_000, WarmCache: false})
	h, err := e.LaunchJoin("q", phantomSpec())
	if err != nil {
		t.Fatal(err)
	}
	reason := errors.New("test abort")
	c.Eng.At(0.01, func() {
		if e.OpenCursors() == 0 {
			t.Error("no cursors open mid-query — abort point too late")
		}
		h.Abort(reason)
	})
	read := diskReads(c)
	c.Run()
	if !h.Done.Fired() {
		t.Fatal("Done never fired after abort")
	}
	if !errors.Is(h.Err, reason) {
		t.Fatalf("Err = %v, want the abort reason", h.Err)
	}
	if !h.aborted {
		t.Fatal("handle not marked aborted")
	}
	if n := e.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors leaked after abort", n)
	}
	if n := len(e.inflight); n != 0 {
		t.Fatalf("%d handles still in flight", n)
	}
	// Prompt stop: the probe side (the bulk of the bytes) must not have
	// been scanned to the end.
	total := phantomSpec().Probe.TotalRows()
	if full := float64(total) * float64(tpch.Q3ProjectedWidth); *read > full/2 {
		t.Fatalf("abort did not stop scans promptly: %.0f of %.0f bytes read", *read, full)
	}
}

// TestHaltAbortWithOpenCursors extends sim.TestHalt and
// TestScanCursorCloseStopsDiskPump across the stack: Halt the engine
// mid-query with a join's cursors open, abort the query while the
// simulation is frozen, then resume — the drain must complete promptly
// with zero leaked cursors.
func TestHaltAbortWithOpenCursors(t *testing.T) {
	c := newCluster(t, 4)
	e := New(c, Config{BatchRows: 50_000, WarmCache: false})
	h, err := e.LaunchJoin("q", phantomSpec())
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.At(0.01, c.Eng.Halt)
	c.Run()
	if h.Done.Fired() {
		t.Fatal("query finished before the halt point — halt too late")
	}
	if e.OpenCursors() == 0 {
		t.Fatal("no cursors open at halt — test is vacuous")
	}
	haltedAt := c.Eng.Now()
	h.Abort(errors.New("operator intervention"))
	c.Run() // resume: the abort drain runs from the queued events
	if !h.Done.Fired() {
		t.Fatal("Done never fired after halt+abort+resume")
	}
	if n := e.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors leaked after halt+abort", n)
	}
	// Prompt stop: the drain is bounded by in-flight batches, far less
	// than the query's full runtime.
	unfaulted, _, err := RunJoin(newCluster(t, 4), Config{BatchRows: 50_000, WarmCache: false}, phantomSpec())
	if err != nil {
		t.Fatal(err)
	}
	if drain := c.Eng.Now() - haltedAt; drain > unfaulted.Seconds/2 {
		t.Fatalf("abort drain took %.3fs — not prompt (full query %.3fs)", drain, unfaulted.Seconds)
	}
}

// TestLaunchRefusedWhileNodeDown: admission rejects queries while any
// node is crashed, and accepts them again after restart.
func TestLaunchRefusedWhileNodeDown(t *testing.T) {
	c := newCluster(t, 4)
	e := New(c, cfgSmall())
	build, probe := smallDefs(false)
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05}
	c.Eng.Go("driver", func(p *sim.Proc) {
		c.Nodes[2].Fail(p.Now() + 5)
		if _, err := e.LaunchJoin("refused", spec); !errors.Is(err, ErrNodeDown) {
			t.Errorf("launch on downed cluster: err = %v, want ErrNodeDown", err)
		}
		p.Hold(1)
		c.Nodes[2].Restart()
		h, err := e.LaunchJoin("accepted", spec)
		if err != nil {
			t.Errorf("launch after restart failed: %v", err)
			return
		}
		h.Done.Wait(p)
	})
	c.Run()
}

// TestRunWithRetryRecoversFromCrash: a crash aborts the first attempt;
// the retry path backs off past the outage and the relaunch succeeds.
func TestRunWithRetryRecoversFromCrash(t *testing.T) {
	c := newCluster(t, 4)
	e := New(c, Config{BatchRows: 50_000, WarmCache: false})
	spec := phantomSpec()
	// Crash node 1 shortly into the first attempt, restarting 0.05s later.
	c.Eng.At(0.01, func() {
		c.Nodes[1].Fail(c.Eng.Now() + 0.05)
		e.AbortInFlight(fmt.Errorf("%w: node 1 crashed", ErrNodeDown))
	})
	c.Eng.At(0.06, func() { c.Nodes[1].Restart() })
	var res JoinResult
	var retries int
	var rerr error
	c.Eng.Go("driver", func(p *sim.Proc) {
		res, retries, rerr = e.RunWithRetry(p, "q", spec, RetryPolicy{MaxRetries: 8, Backoff: 0.02, BackoffCap: 0.1})
	})
	c.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if retries == 0 {
		t.Fatal("crash consumed no retries")
	}
	if res.Seconds <= 0 || res.OutputRows <= 0 {
		t.Fatalf("retried query returned a void result: %+v", res)
	}
	if n := e.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors leaked across retries", n)
	}
}

// TestRunWithRetryTimeout: an attempt that outlives its deadline is
// aborted by the watchdog; with the budget exhausted the final error
// wraps ErrQueryTimeout.
func TestRunWithRetryTimeout(t *testing.T) {
	c := newCluster(t, 4)
	e := New(c, Config{BatchRows: 50_000, WarmCache: false})
	var rerr error
	c.Eng.Go("driver", func(p *sim.Proc) {
		_, _, rerr = e.RunWithRetry(p, "q", phantomSpec(),
			RetryPolicy{Timeout: 0.001, MaxRetries: 2, Backoff: 0.01, BackoffCap: 0.01})
	})
	c.Run()
	if !errors.Is(rerr, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", rerr)
	}
	if n := e.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors leaked after timeouts", n)
	}
}

// TestRunWithRetrySucceedsFirstTry: on a healthy cluster the retry
// wrapper is transparent — zero retries, same result as a bare launch.
func TestRunWithRetrySucceedsFirstTry(t *testing.T) {
	bare, _, err := RunJoin(newCluster(t, 4), Config{BatchRows: 50_000, WarmCache: true}, phantomSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 4)
	e := New(c, Config{BatchRows: 50_000, WarmCache: true})
	var res JoinResult
	var retries int
	var rerr error
	c.Eng.Go("driver", func(p *sim.Proc) {
		res, retries, rerr = e.RunWithRetry(p, "q0", phantomSpec(), RetryPolicy{Timeout: 100})
	})
	c.Run()
	if rerr != nil || retries != 0 {
		t.Fatalf("healthy run: err=%v retries=%d", rerr, retries)
	}
	if res.Seconds != bare.Seconds {
		t.Fatalf("retry wrapper perturbed timing: %v != %v", res.Seconds, bare.Seconds)
	}
}
