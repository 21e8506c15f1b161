package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lowerBetter := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higherBetter := metricDef{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"within bound", lowerBetter, steady, []float64{104, 105, 103, 104}, "same"},
		{"slower beyond bound", lowerBetter, steady, []float64{120, 121, 119, 120}, "worse"},
		{"faster beyond bound", lowerBetter, steady, []float64{80, 81, 79, 80}, "better"},
		{"throughput drop", higherBetter, steady, []float64{80, 81, 79, 80}, "worse"},
		{"throughput gain", higherBetter, steady, []float64{120, 121, 119, 120}, "better"},
		{"spread wider than bound", lowerBetter, []float64{80, 100, 120, 140}, []float64{85, 105, 125, 145}, "unresolved"},
		{"noisy but every round better", lowerBetter, []float64{100, 120, 140, 160}, []float64{50, 60, 70, 80}, "better"},
		{"noisy and every round worse", lowerBetter, []float64{50, 60, 70, 80}, []float64{100, 120, 140, 160}, "worse"},
	} {
		if got, _, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func testRecord(p50 []float64, sha string, failed int) record {
	w := workloadRecord{Name: "suite_sf100"}
	for _, v := range p50 {
		metrics := map[string]metricValue{}
		for _, def := range endToEnd {
			metrics[def.Name] = metricValue{Value: 10, Unit: def.Unit}
		}
		metrics["p50_ms"] = metricValue{Value: v, Unit: "ms"}
		w.Rounds = append(w.Rounds, runDetail{Workload: w.Name, CalibMS: [2]float64{80, 80},
			Result: result{Correct: failed == 0, Attempted: 48, Failed: failed, Metrics: metrics},
			Exact:  map[string]string{"suite_sf100.output_sha": sha}})
	}
	rec := record{Schema: 1, Seed: 1, Rounds: len(p50), Workloads: []workloadRecord{w}}
	rec.summarise()
	return rec
}

func TestCompareRecords(t *testing.T) {
	a := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 0)
	var out bytes.Buffer
	if code := compareRecords(&out, a, a); code != 0 {
		t.Errorf("a record compared with itself exits %d:\n%s", code, out.String())
	}

	out.Reset()
	slow := testRecord([]float64{6000, 6010, 5990, 6000}, "abc", 0)
	if code := compareRecords(&out, a, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% slower record must be worse and exit 1, got %d:\n%s", code, out.String())
	}

	out.Reset()
	changed := testRecord([]float64{4000, 4010, 3990, 4000}, "def", 0)
	if code := compareRecords(&out, a, changed); code != 1 || !strings.Contains(out.String(), "!!! suite_sf100: exact suite_sf100.output_sha differs") {
		t.Errorf("a different output hash must be shouted and exit 1, got %d:\n%s", code, out.String())
	}

	out.Reset()
	broken := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 24)
	if code := compareRecords(&out, a, broken); code != 1 || !strings.Contains(out.String(), "failed 24 of 48 on side B") {
		t.Errorf("failed checks must be shouted and exit 1, got %d:\n%s", code, out.String())
	}
	if !regexp.MustCompile(`fail_pct +lower +0 +50 .* worse`).MatchString(out.String()) {
		t.Errorf("fail_pct must read 0 against 50 and worse:\n%s", out.String())
	}

	// A count or hash that only one side has is a difference, not a pass:
	// a record without its traced run or its hashes must not compare clean.
	out.Reset()
	bare := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 0)
	for i := range bare.Workloads[0].Rounds {
		bare.Workloads[0].Rounds[i].Exact = nil
	}
	for _, pair := range [][2]record{{a, bare}, {bare, a}} {
		out.Reset()
		if code := compareRecords(&out, pair[0], pair[1]); code != 1 || !strings.Contains(out.String(), "!!! suite_sf100: exact suite_sf100.output_sha is missing from one side") {
			t.Errorf("an exact count missing from one side must be shouted and exit 1, got %d:\n%s", code, out.String())
		}
	}

	// A hash that changes between the rounds of one record: not stable,
	// even when the other side changes in the same way.
	out.Reset()
	flaky := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 0)
	flaky.Workloads[0].Rounds[3].Exact = map[string]string{"suite_sf100.output_sha": "def"}
	if code := compareRecords(&out, flaky, flaky); code != 1 || !regexp.MustCompile(`output_stable +higher +0 +0 .* worse`).MatchString(out.String()) {
		t.Errorf("a hash that differs between rounds must read output_stable 0 and exit 1, got %d:\n%s", code, out.String())
	}

	// Different seeds: hashes may differ (fault plans are seeded).
	out.Reset()
	other := testRecord([]float64{4000, 4010, 3990, 4000}, "def", 0)
	other.Seed = 2
	if code := compareRecords(&out, a, other); code != 0 {
		t.Errorf("records of different seeds must not be compared on exact counts, got %d:\n%s", code, out.String())
	}
}

// TestTailOfAFewSamplesIsNotJudged: with fewer than minTailSamples latency
// samples a round, p99_ms repeats the median; it is shown and not judged.
func TestTailOfAFewSamplesIsNotJudged(t *testing.T) {
	a := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 0)
	b := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 0)
	for i := range b.Workloads[0].Rounds {
		b.Workloads[0].Rounds[i].Result.Metrics["p99_ms"] = metricValue{Value: 20, Unit: "ms"}
	}
	for _, samples := range []int{3, 5000} {
		for _, rec := range []record{a, b} {
			for i := range rec.Workloads[0].Rounds {
				rec.Workloads[0].Rounds[i].Samples = samples
			}
		}
		var out bytes.Buffer
		code := compareRecords(&out, a, b)
		if ungated := strings.Contains(out.String(), "ungated"); ungated != (samples < minTailSamples) || (code == 0) != ungated {
			t.Errorf("%d samples a round: exit %d\n%s", samples, code, out.String())
		}
	}
}

func TestNoisyRoundIsFlagged(t *testing.T) {
	rec := testRecord([]float64{4000, 4010, 3990, 4000}, "abc", 0)
	rec.Workloads[0].Rounds[2].CalibMS = [2]float64{80, 95}
	rec.summarise()
	want := []bool{false, false, true, false}
	for i, n := range rec.Workloads[0].Noisy {
		if n != want[i] {
			t.Fatalf("noisy = %v, want %v", rec.Workloads[0].Noisy, want)
		}
	}
}
