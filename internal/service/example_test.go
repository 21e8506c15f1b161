package service_test

import (
	"fmt"
	"log"

	"repro/internal/service"
	"repro/internal/workload"
)

// A join runs on a simulated cluster, the identical request is answered
// from the cache, and a design request asks the model which cluster
// should run the workload. cmd/serve puts a Server on stdin or HTTP.
func ExampleServer_Do() {
	srv, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	join := &workload.JoinRequest{SF: 10, BuildSel: 0.05, ProbeSel: 0.05}
	for _, id := range []string{"q1", "q2"} {
		r := srv.Do(service.Request{V: 1, ID: id, Tenant: "dash", Join: join})
		fmt.Printf("%s %s cache=%s %.2f s %.1f J\n", r.ID, r.Status, r.Cache, r.Seconds, r.Joules)
	}

	d := srv.Do(service.Request{V: 1, ID: "d1", Tenant: "adhoc", Design: &service.DesignRequest{
		BuildGB: 700, ProbeGB: 2800, Nodes: 8, Target: 0.6, BuildSel: 0.10, ProbeSel: 0.02,
	}})
	fmt.Printf("%s %s design=%s %.0f s %.1f kJ\n", d.ID, d.Status, d.Design, d.Seconds, d.Joules/1000)
	// Output:
	// q1 ok cache=miss 0.31 s 412.9 J
	// q2 ok cache=hit 0.31 s 412.9 J
	// d1 ok design=2B,6W 598 s 504.4 kJ
}
