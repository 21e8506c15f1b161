package experiments

import (
	"reflect"
	"testing"
)

// The fault experiments run at the default SF 100: their fault plans
// are fixed in virtual seconds and calibrated to that scale's query
// times (at toy scales the workload ends before the first episode).

// TestFaultShardedMatchesSerial: fanning the MTTF/straggler grid across
// shard workers reassembles the identical Result.
func TestFaultShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-backed experiment sweep")
	}
	for _, id := range []string{"fault1", "fault2"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := e.Run(Options{Shards: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		sharded, err := e.Run(Options{Shards: 4})
		if err != nil {
			t.Fatalf("%s sharded: %v", id, err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("%s: sharded run differs from serial run", id)
		}
	}
}

// TestFault1ShowsFaultCost is the experiment's reason to exist: the
// shortest-MTTF run must fire crashes, consume retries, accrue downtime
// and bill measurably more energy per successful query than the
// zero-fault baseline — while still completing every query (the retry
// budget holds at this scale).
func TestFault1ShowsFaultCost(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-backed experiment sweep")
	}
	res, err := Fault1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	base, worst := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	col := func(row []any, i int) float64 {
		switch v := row[i].(type) {
		case float64:
			return v
		case int:
			return float64(v)
		default:
			t.Fatalf("cell %d is %T", i, row[i])
			return 0
		}
	}
	// Columns: run, makespan, goodput, ok, failed, retries, crashes,
	// down, energy, J/good query.
	if col(base, 5) != 0 || col(base, 6) != 0 {
		t.Fatalf("zero-fault baseline reports fault activity: %v", base)
	}
	if col(worst, 6) == 0 || col(worst, 5) == 0 || col(worst, 7) <= 0 {
		t.Fatalf("worst-MTTF run fired no faults (vacuous sweep): %v", worst)
	}
	if col(worst, 3) != 6 || col(worst, 4) != 0 {
		t.Fatalf("queries failed at default retry budget: %v", worst)
	}
	if col(worst, 9) <= col(base, 9) {
		t.Fatalf("fault tolerance billed no extra energy: %v vs %v", col(worst, 9), col(base, 9))
	}
	if p := res.Series[0].Points[0]; p.NormPerf != 1 || p.NormEnerg != 1 {
		t.Fatalf("baseline point not normalized to itself: %+v", p)
	}
}

// TestFault2ShowsTailGrowth: the straggler sweep must fire episodes and
// widen the max/p50 latency ratio monotonically-enough — the heaviest
// factor's tail must exceed the lightest nonzero factor's.
func TestFault2ShowsTailGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-backed experiment sweep")
	}
	res, err := Fault2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	// Columns: run, makespan, p50, max, max/p50, episodes, retries,
	// energy, J/query.
	ratio := func(row []any) float64 { return row[4].(float64) }
	episodes := func(row []any) int { return row[5].(int) }
	base, light, heavy := tbl.Rows[0], tbl.Rows[1], tbl.Rows[len(tbl.Rows)-1]
	// The baseline's queries are identical up to float accumulation
	// order, so its ratio is 1 within rounding.
	if ratio(base) > 1.001 || episodes(base) != 0 {
		t.Fatalf("zero-fault baseline has a tail: %v", base)
	}
	if episodes(light) == 0 || episodes(heavy) == 0 {
		t.Fatalf("straggler runs fired no episodes (vacuous sweep): %v / %v", light, heavy)
	}
	if ratio(heavy) <= ratio(light) {
		t.Fatalf("tail did not grow with intensity: %v vs %v", ratio(heavy), ratio(light))
	}
}
