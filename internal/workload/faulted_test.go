package workload

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/pstore"
)

// TestFaultedZeroPlanMatchesHTAP: a zero fault config injects nothing,
// so per-query timings must equal RunHTAP's exactly — the fault plane's
// checks are no-ops on the unfaulted path.
func TestFaultedZeroPlanMatchesHTAP(t *testing.T) {
	hspec := HTAPSpec{SF: 10, Queries: 2, UpdateRowsPerSec: 4e6}
	base, err := RunHTAP(htapCluster(t), htapCfg, hspec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFaulted(htapCluster(t), htapCfg, FaultedSpec{HTAP: hspec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.QuerySeconds, base.QuerySeconds) {
		t.Fatalf("zero-fault query times %v != htap %v", res.QuerySeconds, base.QuerySeconds)
	}
	if res.Retries != 0 || res.Failed != 0 || res.DownSeconds != 0 || res.Faults != (fault.Counts{}) {
		t.Fatalf("zero-fault run reports fault activity: %+v", res)
	}
	if res.Makespan != base.Makespan {
		t.Fatalf("zero-fault makespan %v != htap %v", res.Makespan, base.Makespan)
	}
}

// TestFaultedDeterministic: identical spec + seed give identical
// results in every field.
func TestFaultedDeterministic(t *testing.T) {
	spec := FaultedSpec{
		HTAP:   HTAPSpec{SF: 10, Queries: 4, UpdateRowsPerSec: 4e6},
		Faults: fault.Config{Seed: 7, Horizon: 10, MTTF: 1, MTTR: 0.05, StragglerEvery: 0.3, StragglerSecs: 0.1, StragglerFactor: 4},
		Retry:  pstore.RetryPolicy{Timeout: 5, MaxRetries: 32, Backoff: 0.02, BackoffCap: 0.1},
	}
	a, err := RunFaulted(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaulted(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs differ:\n%+v\n%+v", a, b)
	}
	if a.Faults == (fault.Counts{}) {
		t.Fatalf("plan fired no episodes — test is vacuous: %+v", a)
	}
}

// TestFaultedCrashForcesRetry: an aggressive crash plan must actually
// produce retries, and every query must still eventually succeed within
// a generous budget — the recovery loop works, not just the abort.
func TestFaultedCrashForcesRetry(t *testing.T) {
	spec := FaultedSpec{
		HTAP:   HTAPSpec{SF: 10, Queries: 4},
		Faults: fault.Config{Seed: 1, Horizon: 10, MTTF: 0.8, MTTR: 0.05},
		Retry:  pstore.RetryPolicy{MaxRetries: 64, Backoff: 0.02, BackoffCap: 0.1},
	}
	res, err := RunFaulted(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatalf("crash plan produced no retries: %+v", res)
	}
	if res.Failed != 0 || len(res.QuerySeconds) != 4 {
		t.Fatalf("queries failed under a generous budget: %+v", res)
	}
	if res.Faults.Crashes == 0 || res.DownSeconds <= 0 {
		t.Fatalf("no crash activity recorded: %+v", res)
	}
}

// TestFaultedStragglerSlowsQueries: degrading service rates must
// lengthen at least one query relative to the unfaulted run without any
// retries being needed (stragglers are slow, not dead).
func TestFaultedStragglerSlowsQueries(t *testing.T) {
	hspec := HTAPSpec{SF: 10, Queries: 3}
	base, err := RunHTAP(htapCluster(t), htapCfg, hspec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFaulted(htapCluster(t), htapCfg, FaultedSpec{
		HTAP:   hspec,
		Faults: fault.Config{Seed: 5, Horizon: 10, StragglerEvery: 0.1, StragglerSecs: 0.1, StragglerFactor: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Stragglers == 0 {
		t.Fatalf("straggler plan fired no episodes: %+v", res)
	}
	slower := false
	for i, s := range res.QuerySeconds {
		if s > base.QuerySeconds[i] {
			slower = true
		}
		if s < base.QuerySeconds[i] {
			t.Fatalf("query %d faster under stragglers: %v < %v", i, s, base.QuerySeconds[i])
		}
	}
	if !slower {
		t.Fatalf("no query slowed down: faulted %v vs base %v", res.QuerySeconds, base.QuerySeconds)
	}
}
