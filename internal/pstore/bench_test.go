package pstore

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
)

// BenchmarkMaterializedJoin is the Q3 dual shuffle with real rows:
// join_mat_sf2 at a tenth of its scale factor. ORDERS is segmented on
// O_CUSTKEY and LINEITEM on L_SHIPDATE, both materialised, 5 % selected
// on each side, on 4 ClusterV nodes with a warm cache. One op is one
// whole join — load both tables, scan, shuffle, build, probe — checked
// against the reference join; rows/s counts the rows of both tables.
func BenchmarkMaterializedJoin(b *testing.B) {
	build, probe := smallDefs(true)
	build.SF, probe.SF = 0.2, 0.2
	spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.05, ProbeSel: 0.05, Method: DualShuffle}
	cfg := Config{WarmCache: true, BatchRows: 4096}
	wantRows, wantSum := ReferenceJoin(build, probe, spec.BuildSel, spec.ProbeSel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := RunJoin(c, cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.OutputRows != wantRows || res.Checksum != wantSum {
			b.Fatalf("join answered %d rows / checksum %d, reference %d / %d", res.OutputRows, res.Checksum, wantRows, wantSum)
		}
	}
	rows := float64(build.TotalRows() + probe.TotalRows())
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
