package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
)

// FuzzJoinRequestSpec holds JoinRequest.Spec to its contract: every
// request it accepts is a join the engine takes, that is, the spec
// passes JoinSpec.Validate on the service's default cluster (4 Cluster-V
// nodes). A request the engine would refuse must be refused by Spec, so
// the service answers it as invalid instead of as a failed run.
func FuzzJoinRequestSpec(f *testing.F) {
	c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []JoinRequest{
		{},
		{SF: 5, BuildSel: 0.1, ProbeSel: 0.02, Method: "broadcast"},
		{SF: 10, Method: "prepartitioned"},
		{SF: maxRequestSF, BuildSel: 1, ProbeSel: 1},
		{SF: 1e-9},
		{SF: 1e-6, Method: "prepartitioned"},
	} {
		f.Add(seed.SF, seed.BuildSel, seed.ProbeSel, seed.Method)
	}
	f.Fuzz(func(t *testing.T, sf, bsel, psel float64, method string) {
		r := JoinRequest{SF: sf, BuildSel: bsel, ProbeSel: psel, Method: method}
		spec, err := r.Spec()
		if err != nil {
			return
		}
		if err := spec.Validate(c); err != nil {
			t.Fatalf("Spec accepted %+v, Validate refuses it: %v", r, err)
		}
	})
}
