package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// record is what -record writes and -compare reads: every workload run
// in interleaved rounds, plus one traced run of each.
type record struct {
	Schema  int     `json:"schema"`
	Date    string  `json:"date"`
	Go      string  `json:"go"`
	NumCPU  int     `json:"nproc"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Rounds  int     `json:"rounds"`
	Smoke   bool    `json:"smoke,omitempty"`
	// CalibMedianMS is the median of every calibration reading of the
	// session; a round whose readings stray more than 10% from it ran in
	// a different machine phase and is flagged noisy.
	CalibMedianMS float64          `json:"calib_median_ms"`
	Workloads     []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name   string      `json:"name"`
	Rounds []runDetail `json:"rounds"`
	// Noisy[i] is true when round i's calibration drifted; its numbers
	// are kept (a bad phase is evidence, not something to hide) and the
	// flag is shown beside every verdict that used them.
	Noisy  []bool     `json:"noisy"`
	Traced *runDetail `json:"traced,omitempty"`
	// Summary is, per end-to-end metric, the median, minimum and maximum
	// of the per-round values.
	Summary map[string]summary `json:"summary"`
}

type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// recordRounds is how many interleaved rounds a record holds. It is fixed
// so that any two records have round-to-round spreads that compare.
const (
	recordRounds    = 4
	noisyDriftShare = 0.10
)

// recordAll runs every workload once per round, in declaration order
// inside each round, so that a slow phase of the machine spreads over
// all workloads instead of landing on one; then one traced run of each.
// Each run is this program started again for one workload — exactly the
// invocation the driver makes — so an in-process workload's memory
// high-water mark never includes another workload's.
func recordAll(path string, seed int64, seconds float64, smoke bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join("benchmark", "out"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rec := record{Schema: 1, Date: time.Now().Format("2006-01-02"), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Rounds: recordRounds, Smoke: smoke}
	for _, w := range workloads {
		rec.Workloads = append(rec.Workloads, workloadRecord{Name: w.name})
	}
	failed := false
	one := func(i int, traced bool) (runDetail, bool) {
		detailPath := filepath.Join("benchmark", "out", "detail.json")
		args := []string{"--workload", workloads[i].name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--detail", detailPath, "--trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		p, err := startProc(cmd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return runDetail{}, false
		}
		<-p.done
		var d runDetail
		b, err := os.ReadFile(detailPath)
		if err == nil {
			err = json.Unmarshal(b, &d)
		}
		os.Remove(detailPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: no result (%v, exit %v)\n", workloads[i].name, err, p.waitErr)
			return d, false
		}
		return d, d.Result.Correct
	}
	for r := 0; r < recordRounds; r++ {
		for i := range workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d  %s\n", r+1, recordRounds, workloads[i].name)
			d, ok := one(i, false)
			failed = failed || !ok
			rec.Workloads[i].Rounds = append(rec.Workloads[i].Rounds, d)
		}
	}
	for i := range workloads {
		fmt.Fprintf(os.Stderr, "traced     %s\n", workloads[i].name)
		d, ok := one(i, true)
		failed = failed || !ok
		rec.Workloads[i].Traced = &d
	}
	rec.summarise()
	if err := writeJSONFile(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rec.print(os.Stdout)
	if failed {
		fmt.Println("FAILED: at least one run failed an output check or produced no result")
		return 1
	}
	return 0
}

// summarise fills the calibration median, the noisy flags and the
// per-metric summaries.
func (rec *record) summarise() {
	var calib []float64
	for _, w := range rec.Workloads {
		for _, d := range w.Rounds {
			calib = append(calib, d.CalibMS[0], d.CalibMS[1])
		}
	}
	rec.CalibMedianMS = median(calib)
	for i := range rec.Workloads {
		w := &rec.Workloads[i]
		w.Noisy = make([]bool, len(w.Rounds))
		w.Summary = make(map[string]summary)
		for r, d := range w.Rounds {
			for _, c := range d.CalibMS {
				if math.Abs(c-rec.CalibMedianMS) > noisyDriftShare*rec.CalibMedianMS {
					w.Noisy[r] = true
				}
			}
		}
		for _, def := range endToEnd {
			v := w.values(def.Name)
			if len(v) == 0 {
				continue
			}
			lo, hi := minMax(v)
			w.Summary[def.Name] = summary{Median: median(v), Min: lo, Max: hi, Unit: def.Unit, N: len(v)}
		}
	}
}

// values returns one end-to-end metric's per-round values.
func (w workloadRecord) values(metric string) []float64 {
	var v []float64
	for _, d := range w.Rounds {
		if m, ok := d.Result.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// allRuns is every run of the workload: the rounds, then the traced run.
func (w workloadRecord) allRuns() []runDetail {
	runs := append([]runDetail(nil), w.Rounds...)
	if w.Traced != nil {
		runs = append(runs, *w.Traced)
	}
	return runs
}

func (w workloadRecord) anyNoisy() bool {
	for _, n := range w.Noisy {
		if n {
			return true
		}
	}
	return false
}

func (rec record) print(out *os.File) {
	fmt.Fprintf(out, "record: seed %d, %d rounds of %g s, %s, %d CPUs, calibration median %.2f ms\n",
		rec.Seed, rec.Rounds, rec.Seconds, rec.Go, rec.NumCPU, rec.CalibMedianMS)
	for _, w := range rec.Workloads {
		flag := ""
		if w.anyNoisy() {
			flag = fmt.Sprintf("  noisy rounds: %v", w.Noisy)
		}
		fmt.Fprintf(out, "%s%s\n", w.Name, flag)
		for _, def := range endToEnd {
			s := w.Summary[def.Name]
			fmt.Fprintf(out, "  %-12s median %14.6g  min %14.6g  max %14.6g  %-4s (n=%d, %s is better)\n",
				def.Name, s.Median, s.Min, s.Max, s.Unit, s.N, def.Better)
		}
	}
}

func loadRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %v", path, err)
	}
	if rec.Schema != 1 {
		return rec, fmt.Errorf("%s: record schema %d, this program reads 1", path, rec.Schema)
	}
	return rec, nil
}
