package experiments

import (
	"reflect"
	"testing"
)

// htapTestOpts keeps the sweep cheap: a small scale factor.
func htapTestOpts() Options {
	return Options{SF: 10}
}

// TestHTAPShardedMatchesSerial: fanning the rate/design grid across
// shard workers reassembles the identical Result.
func TestHTAPShardedMatchesSerial(t *testing.T) {
	for _, id := range []string{"htap1", "htap2"} {
		e, err := byID(id)
		if err != nil {
			t.Fatal(err)
		}
		o := htapTestOpts()
		o.Shards = 1
		serial, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		o.Shards = 4
		sharded, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s sharded: %v", id, err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("%s: sharded run differs from serial run", id)
		}
	}
}

// TestHtap1ShowsDegradation is the experiment's reason to exist: the
// top update rate must measurably depress analytics throughput versus
// the read-only baseline, and the mixed runs must bill energy to both
// transactions and queries.
func TestHtap1ShowsDegradation(t *testing.T) {
	res, err := Htap1(Options{SF: 10})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	qps := func(row []any) float64 { return row[2].(float64) }
	jPerTxn := func(row []any) float64 { return row[8].(float64) }
	base, top := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if qps(base) <= 0 {
		t.Fatalf("read-only throughput not positive: %v", base)
	}
	if got, limit := qps(top), 0.9*qps(base); got >= limit {
		t.Errorf("top-rate throughput %.4f q/s not measurably below baseline %.4f", got, qps(base))
	}
	if jPerTxn(base) != 0 {
		t.Errorf("read-only run bills energy per txn: %v", base)
	}
	if jPerTxn(top) <= 0 {
		t.Errorf("mixed run bills no energy per txn: %v", top)
	}
	// The normalized series carries one point per rate, anchored at the
	// read-only run.
	if n := len(res.Series[0].Points); n != 4 {
		t.Fatalf("series has %d points, want 4", n)
	}
	if p := res.Series[0].Points[0]; p.NormPerf != 1 || p.NormEnerg != 1 {
		t.Fatalf("baseline point not normalized to itself: %+v", p)
	}
}
