package replay

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/service"
)

// TestTwoTenantTraceIsolation floods the committed two-tenant trace
// (5 000 requests, about 90% from "hot") through a service configured as
// `serve -workers 2 -queue 8 -tenants 'quiet=1024:1'`, with 256
// submitters behind Run. The quiet tenant's quota exceeds its whole
// share of the trace, so fair queueing must answer every quiet request,
// while the hot tenant overruns its own quota of 8 and is shed. Every
// request must be answered.
//
// Both workers are held in the cluster factory, so nothing completes,
// until the hot tenant has been shed and the quiet tenant has sent more
// requests than 8 queued and 2 running: at most 10 of either tenant's
// requests can be admitted while nothing completes, so the hot shed is
// certain, and so is a quiet shed if the quiet override is lost. The
// outcome does not depend on how fast the host runs the engine.
func TestTwoTenantTraceIsolation(t *testing.T) {
	const workers, queue, submitters = 2, 8, 256
	f, err := os.Open("testdata/trace_two_tenant.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	events, err := Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	s, err := service.New(service.Config{
		Admission: service.Admission{
			QueueDepth: queue,
			Tenants:    map[string]service.Tenant{"quiet": {QueueDepth: 1024, Weight: 1}},
		},
		Execution: service.Execution{
			Workers: workers,
			Engine:  pstore.Config{WarmCache: true, BatchRows: 200_000},
			Cluster: func() (*cluster.Cluster, error) {
				<-gate
				return cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			m := s.Metrics()
			if m.Tenants["hot"].Shed > 0 && m.Tenants["quiet"].Received > queue+workers {
				close(gate)
				return
			}
			runtime.Gosched()
		}
	}()

	var mu sync.Mutex
	status := map[string]int{}
	// One request buffered per submitter, as serve_flood sizes it: the
	// feeder stays just ahead of the submitters.
	reqs := make(chan service.Request, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				resp := s.Do(r)
				mu.Lock()
				status[resp.Status]++
				mu.Unlock()
			}
		}()
	}
	n := Run(events, Clock{}, 0, func(r service.Request) { reqs <- r })
	close(reqs)
	wg.Wait()
	s.Close()

	if n != 5000 || status["ok"]+status["shed"] != n {
		t.Fatalf("%d requests submitted, answers by status %v: want 5000, each ok or shed", n, status)
	}
	m := s.Metrics()
	if m.Received != int64(n) {
		t.Fatalf("service received %d of %d requests", m.Received, n)
	}
	quiet, hot := m.Tenants["quiet"], m.Tenants["hot"]
	if quiet.Received+hot.Received != int64(n) {
		t.Fatalf("tenants received quiet %d + hot %d, want %d", quiet.Received, hot.Received, n)
	}
	if quiet.Shed != 0 || quiet.OK != quiet.Received {
		t.Fatalf("quiet tenant: %+v; fair queueing must answer every request", quiet)
	}
	if hot.Shed == 0 {
		t.Fatalf("hot tenant: %+v; a flood past its quota must be shed", hot)
	}
}
