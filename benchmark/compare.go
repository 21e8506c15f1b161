package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// verdict classifies how side B of a comparison reads against side A for
// one workload and end-to-end metric.
//
//	same        B's median is within the metric's bound of A's
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better than A's by more than the bound
//	unresolved  the round-to-round spread of either side is wider than
//	            the bound, so the medians cannot be told apart — unless
//	            every round of B reads better (or every round worse, and
//	            by more than the bound) than every round of A
func verdict(def metricDef, a, b []float64) (string, float64, float64) {
	sign := 1.0 // positive worsening = B larger
	if def.Better == "higher" {
		sign = -1
	}
	worsening := sign * (median(b) - median(a)) / math.Abs(median(a))
	noise := math.Max(spread(a), spread(b))
	if math.IsNaN(noise) { // single-round records have no spread
		noise = 0
	}
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	allBetter, allWorse := hiB < loA, loB > hiA
	if sign < 0 {
		allBetter, allWorse = loB > hiA, hiB < loA
	}
	switch {
	case noise > def.Bound && allBetter:
		return "better", worsening, noise
	case noise > def.Bound && allWorse && worsening > def.Bound:
		return "worse", worsening, noise
	case noise > def.Bound:
		return "unresolved", worsening, noise
	case worsening > def.Bound:
		return "worse", worsening, noise
	case worsening < -def.Bound:
		return "better", worsening, noise
	}
	return "same", worsening, noise
}

// compareFiles prints one row per workload and end-to-end metric and a
// loud line for every exact count or output hash that differs; it
// returns 1 when anything is worse, differs or failed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var recs [2]record
	for i, path := range []string{pathA, pathB} {
		var err error
		if recs[i], err = loadRecord(path); err != nil {
			fmt.Fprintln(w, "benchmark:", err)
			return 2
		}
	}
	return compareRecords(w, recs[0], recs[1])
}

func compareRecords(w io.Writer, a, b record) int {
	bad := 0
	fmt.Fprintf(w, "A: seed %d, %d rounds, %s   B: seed %d, %d rounds, %s\n", a.Seed, a.Rounds, a.Date, b.Seed, b.Rounds, b.Date)
	fmt.Fprintf(w, "%-13s %-13s %-6s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "better", "A median", "B median", "worse by", "bound", "spread", "verdict")
	byName := make(map[string]workloadRecord)
	for _, wb := range b.Workloads {
		byName[wb.Name] = wb
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "!!! workload %s is missing from B\n", wa.Name)
			bad++
			continue
		}
		for _, def := range endToEnd {
			va, vb := wa.values(def.Name), wb.values(def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "!!! %s %s: no values (A %d, B %d)\n", wa.Name, def.Name, len(va), len(vb))
				bad++
				continue
			}
			v, worsening, noise := verdict(def, va, vb)
			note := ""
			if n := min(wa.minSamples(), wb.minSamples()); def.Name == "p99_ms" && n < minTailSamples {
				v, note = "ungated", fmt.Sprintf("  (%d samples a round: no tail, this repeats p50_ms)", n)
			}
			if wa.anyNoisy() || wb.anyNoisy() {
				note += "  (noisy round)"
			}
			fmt.Fprintf(w, "%-13s %-13s %-6s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s%s\n",
				wa.Name, def.Name, def.Better, median(va), median(vb), 100*worsening, 100*def.Bound, 100*noise, v, note)
			if v == "worse" {
				bad++
			}
		}
		bad += compareChecks(w, wa, wb, a.Seed == b.Seed)
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d finding(s): worse metrics, differing or missing exact counts, failed checks\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no end-to-end metric is worse beyond its bound; exact counts and output hashes agree; no check failed")
	return 0
}

// failPct is operations without a correct answer as a share of those
// attempted, over every run of the workload.
func (w workloadRecord) failPct() float64 {
	failed, attempted := 0, 0
	for _, d := range w.allRuns() {
		failed, attempted = failed+d.Result.Failed, attempted+d.Result.Attempted
	}
	if attempted == 0 {
		return 100
	}
	return 100 * float64(failed) / float64(attempted)
}

// exact returns every exact count, simulated statistic and output hash
// of the workload's runs. A key whose value differs between runs of the
// one record keeps every value, " | "-joined: the output was not stable.
func (w workloadRecord) exact() map[string]string {
	out := make(map[string]string)
	if w.Traced != nil {
		for _, def := range perLayer {
			if m, ok := w.Traced.Result.Metrics[def.Name]; ok && def.Exact {
				out[def.Name] = fmt.Sprintf("%v", m.Value)
			}
		}
	}
	for _, d := range w.allRuns() {
		for _, k := range sortedKeys(d.Exact) {
			if prev, ok := out[k]; !ok {
				out[k] = d.Exact[k]
			} else if !slices.Contains(strings.Split(prev, " | "), d.Exact[k]) {
				out[k] = prev + " | " + d.Exact[k]
			}
		}
	}
	return out
}

// outputStable is 1 when no run of the workload failed a check and every
// output hash and exact count read the same in all of them.
func (w workloadRecord) outputStable() float64 {
	if w.failPct() > 0 {
		return 0
	}
	for _, v := range w.exact() {
		if strings.Contains(v, " | ") {
			return 0
		}
	}
	return 1
}

// minSamples is the smallest latency sample count of any round.
func (w workloadRecord) minSamples() int {
	n := math.MaxInt
	for _, d := range w.Rounds {
		n = min(n, d.Samples)
	}
	return n
}

// compareChecks prints the two rows held to an absolute bound of 0 —
// fail_pct, and output_stable on the simulator workloads — shouts about
// every failed run and, when both sides used the same seed, about every
// exact count or output hash that differs or that only one side has.
func compareChecks(w io.Writer, wa, wb workloadRecord, sameSeed bool) int {
	bad := 0
	sides := []struct {
		name string
		wr   workloadRecord
	}{{"A", wa}, {"B", wb}}
	row := func(metric, better string, a, b float64) {
		v := "same"
		if (better == "lower" && (a > 0 || b > 0)) || (better == "higher" && (a < 1 || b < 1)) {
			v = "worse"
			bad++
		}
		fmt.Fprintf(w, "%-13s %-13s %-6s %14.6g %14.6g %9s %7s %8s  %s\n", wa.Name, metric, better, a, b, "", "0 abs", "", v)
	}
	row("fail_pct", "lower", wa.failPct(), wb.failPct())
	if def, _ := findWorkload(wa.Name); def.sim {
		row("output_stable", "higher", wa.outputStable(), wb.outputStable())
	}
	for _, s := range sides {
		for _, d := range s.wr.allRuns() {
			if !d.Result.Correct || d.Result.Failed > 0 {
				fmt.Fprintf(w, "!!! %s failed %d of %d on side %s: %v\n", s.wr.Name, d.Result.Failed, d.Result.Attempted, s.name, d.Failures)
			}
		}
	}
	if !sameSeed {
		return bad
	}
	ea, eb := wa.exact(), wb.exact()
	keys := make(map[string]bool)
	for k := range ea {
		keys[k] = true
	}
	for k := range eb {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		va, inA := ea[k]
		vb, inB := eb[k]
		switch {
		case !inA || !inB:
			fmt.Fprintf(w, "!!! %s: exact %s is missing from one side: A %q, B %q\n", wa.Name, k, va, vb)
			bad++
		case va != vb:
			fmt.Fprintf(w, "!!! %s: exact %s differs: A %s, B %s — behaviour changed, not speed\n", wa.Name, k, va, vb)
			bad++
		}
	}
	return bad
}
