package workload

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/delta"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/tpch"
)

func htapCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var htapCfg = pstore.Config{WarmCache: true, BatchRows: 200_000}

// TestHTAPReadOnlyMatchesPlainJoin anchors the merged-view scan path: a
// read-only HTAP run (delta stores attached, zero writes) must produce
// the same query response time as a plain join on a fresh cluster — a
// quiescent delta store changes nothing.
func TestHTAPReadOnlyMatchesPlainJoin(t *testing.T) {
	sf := tpch.ScaleFactor(10)
	spec := HTAPSpec{SF: sf, Queries: 1}
	res, err := RunHTAP(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := pstore.RunJoin(htapCluster(t), htapCfg, Q3Join(sf, 0.05, 0.05, pstore.DualShuffle))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QuerySeconds) != 1 || res.QuerySeconds[0] != plain.Seconds {
		t.Fatalf("read-only htap query = %v s, plain join = %v s", res.QuerySeconds, plain.Seconds)
	}
	if res.Txns != 0 || res.TxnRows != 0 || res.Merges != 0 {
		t.Fatalf("read-only run has write activity: %+v", res)
	}
}

// TestHTAPDeterministic: two identical mixed runs are equal in every
// reported field.
func TestHTAPDeterministic(t *testing.T) {
	spec := HTAPSpec{SF: 10, Queries: 2, UpdateRowsPerSec: 4e6}
	a, err := RunHTAP(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHTAP(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("htap runs diverge:\n a=%+v\n b=%+v", a, b)
	}
}

// TestHTAPUpdateStreamInterferes: a write stream slows analytics down
// and its work is accounted (txns, rows, energy above the read-only
// baseline).
func TestHTAPUpdateStreamInterferes(t *testing.T) {
	base, err := RunHTAP(htapCluster(t), htapCfg, HTAPSpec{SF: 10, Queries: 2})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := RunHTAP(htapCluster(t), htapCfg, HTAPSpec{SF: 10, Queries: 2, UpdateRowsPerSec: 16e6})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Txns == 0 || hot.TxnRows == 0 {
		t.Fatalf("no transactional work applied: %+v", hot)
	}
	if hot.Makespan <= base.Makespan {
		t.Fatalf("update stream did not slow analytics: base %.4f s, hot %.4f s", base.Makespan, hot.Makespan)
	}
	if hot.JoulesPerTxn() <= 0 {
		t.Fatalf("energy per transaction not positive: %+v", hot)
	}
	if base.JoulesPerTxn() != 0 {
		t.Fatalf("read-only run reports energy per txn: %+v", base)
	}
}

// TestHTAPMergesHappen: a sustained stream against a small tail
// threshold triggers background merges, and queries still complete with
// consistent counts.
func TestHTAPMergesHappen(t *testing.T) {
	spec := HTAPSpec{
		SF: 10, Queries: 2, UpdateRowsPerSec: 16e6,
		Delta: delta.Config{MaxTailRows: 1_000_000, CheckEvery: 0.25},
	}
	res, err := RunHTAP(htapCluster(t), htapCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merges == 0 {
		t.Fatalf("no merges despite a 1M-row threshold: %+v", res)
	}
}
