package workload

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pstore"
)

// TestNoProcessOutlivesItsSimulation: every driver ends its run with
// Cluster.Stop, so a finished simulation leaves no goroutine behind —
// not the per-node ingress pumps parked on their inboxes, not the
// processes a faulted run's Halt froze mid-flight — and therefore no
// cluster pinned in memory: the goroutine count returns to its starting
// value and the live heap does not grow with the number of finished
// runs.
func TestNoProcessOutlivesItsSimulation(t *testing.T) {
	join := Q3Join(10, 0.05, 0.05, pstore.DualShuffle)
	runJoins := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := pstore.RunJoin(htapCluster(t), htapCfg, join); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := runtime.NumGoroutine()

	runJoins(10)
	heap10 := liveHeap()
	runJoins(40)
	heap50 := liveHeap()
	if _, err := RunHTAP(htapCluster(t), htapCfg, HTAPSpec{SF: 10, Queries: 2, UpdateRowsPerSec: 4e6}); err != nil {
		t.Fatal(err)
	}
	res, err := RunFaulted(htapCluster(t), htapCfg, FaultedSpec{
		HTAP:   HTAPSpec{SF: 10, Queries: 4},
		Faults: fault.Config{Seed: 1, Horizon: 10, MTTF: 0.8, MTTR: 0.05},
		Retry:  pstore.RetryPolicy{MaxRetries: 64, Backoff: 0.02, BackoffCap: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("faulted run aborted nothing — it leaves no frozen processes to release")
	}

	// A released process hands control back before its goroutine has
	// quite finished exiting, so the count settles a moment later.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after 50 joins, an HTAP run and a faulted run; started with %d", got, base)
	}
	// The leak was ~36 KB per 4-node run (a pump per node pinning the
	// cluster): 40 more runs added 1.4 MB.
	if grew := int64(heap50) - int64(heap10); grew > 256<<10 {
		t.Fatalf("live heap grew %d KB between the 10th and the 50th finished join", grew>>10)
	}
}
