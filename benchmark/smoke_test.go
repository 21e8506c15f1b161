package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json at the root in
// step with what the program declares, and inside the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(manifestJSON()) {
		t.Error("BENCHMARK.json differs from `run.sh -manifest`; regenerate it")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or why is not one line of at most 200 characters (%d)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, bad unit or direction", d)
		}
		seen[d.Name] = true
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// checkResult asserts the contract on one result line: exactly the
// declared metrics, each once (a JSON object cannot repeat a key the
// program built from a map), with the declared unit and a finite value.
func checkResult(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(line, &decoded); err != nil || len(decoded) != 4 {
		t.Fatalf("result line must have exactly correct, attempted, failed, metrics: %s", line)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared but was not reported", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at 1/50 scale and checks the
// result line, the output checks, and that no process is left behind.
func TestSmokeEveryWorkload(t *testing.T) {
	for i, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e, err := newEnv("..", int64(40+i), smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			o, err := runWorkload(e, w, 0.3, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := o.result(false)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.m.failures) > 0 {
				t.Errorf("failed checks: %v", o.m.failures)
			}
			checkResult(t, res, endToEnd, true)
			if len(o.setupS) != 3 {
				t.Errorf("set up %d times, want 3 at smoke scale", len(o.setupS))
			}
			assertNoChildren(t)
		})
	}
}

// TestSmokeTracedRun checks that a traced run reports every per-layer
// metric and writes a Chrome trace that loads.
func TestSmokeTracedRun(t *testing.T) {
	e, err := newEnv("..", 1, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("serve_hit")
	o, err := runWorkload(e, w, 0.4, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.result(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer, false)
	b, err := os.ReadFile(o.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	ids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		ids[ev.Args.ID] = true
	}
	requests := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Name == "" || (ev.Args.Parent != 0 && !ids[ev.Args.Parent]) {
			t.Fatalf("bad trace event %+v", ev)
		}
		if ev.Name == "POST /" {
			requests++
		}
	}
	if requests == 0 {
		t.Error("the traced serve_hit interval recorded no sampled request span")
	}
	assertNoChildren(t)
}

// assertNoChildren fails when a process started by the benchmark is
// still tracked, or when /proc still lists a child of this process.
func assertNoChildren(t *testing.T) {
	t.Helper()
	if n := liveChildren(); n != 0 {
		t.Errorf("%d child processes are still tracked", n)
	}
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc")
	}
	for _, ent := range entries {
		f, err := procStatFields(ent.Name())
		if err != nil {
			continue // not a process, or gone already
		}
		if f[1] == fmt.Sprint(os.Getpid()) && f[0] != "Z" {
			t.Errorf("process %s is still a child of the benchmark", ent.Name())
		}
	}
}

// TestStopAllChildrenReapsAServer covers the last-resort sweep: a server
// nobody closed is terminated and gone when the sweep returns.
func TestStopAllChildrenReapsAServer(t *testing.T) {
	e, err := newEnv("..", 1, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildBinaries(e.root); err != nil {
		t.Fatal(err)
	}
	srv, err := startServe(e.root, 1, e.out+"/sweep.stderr")
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.pid()
	stopAllChildren()
	srv.stderr.Close()
	if !srv.exited() {
		t.Error("the server is still running after the sweep")
	}
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
		t.Errorf("/proc/%d still exists after the sweep", pid)
	}
	assertNoChildren(t)
}
