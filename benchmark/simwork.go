package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// reproInstance drives cmd/repro as a black box: each operation is one
// complete run of the program, start to exit, writing its report to a
// file that is then compared with what it must contain.
type reproInstance struct {
	e    env
	name string
	dir  string
	args []string // without -o
	// experiments is how many experiments one run regenerates (the unit
	// req_per_s counts); a failed run fails all of them.
	experiments int
	// want maps a section heading of EXPERIMENTS.md to its text, for the
	// sections this run must reproduce byte for byte (nil = none).
	want map[string]string
	// wantWhole is the complete expected document (seed 1 at full scale).
	wantWhole []byte
	rssMB     float64
	first     string // output hash of the first run
}

// splitSections cuts a Markdown record at its "## " headings.
func splitSections(doc string) map[string]string {
	out := make(map[string]string)
	parts := strings.Split("\n"+doc, "\n## ")
	for _, p := range parts[1:] {
		head, _, _ := strings.Cut(p, "\n")
		out[head] = strings.TrimRight(p, "\n")
	}
	return out
}

// setupSuite prepares suite_sf100: an output directory, the expected
// record loaded and split, and a probe of the binary (-list must name the
// experiments the record has).
func setupSuite(e env) (instance, error) {
	dir, err := os.MkdirTemp(e.out, "suite-")
	if err != nil {
		return nil, err
	}
	r, err := prepareSuite(e, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return r, nil
}

func prepareSuite(e env, dir string) (*reproInstance, error) {
	r := &reproInstance{e: e, name: "suite_sf100", dir: dir,
		args: []string{"-exp", "all", "-j", "1", "-shards", "1", "-md", "-fault-seed", strconv.FormatInt(e.seed, 10)}}
	want, err := os.ReadFile(filepath.Join(e.root, "EXPERIMENTS.md"))
	if err != nil {
		return nil, err
	}
	ids, err := listExperiments(e.root)
	if err != nil {
		return nil, err
	}
	r.experiments = len(ids)
	// Preflight: the model-only experiments take milliseconds and do not
	// depend on the scale factor, so a binary that disagrees with the
	// record is caught before any multi-second run is paid for.
	pre := filepath.Join(dir, "preflight.md")
	if _, err := runToCompletion(binPath(e.root, "repro"), "-exp", "table*,fig1*,fig2*", "-md", "-o", pre); err != nil {
		return nil, err
	}
	got, err := os.ReadFile(pre)
	if err != nil {
		return nil, err
	}
	have, record := splitSections(string(got)), splitSections(string(want))
	for head, text := range have {
		if record[head] != text {
			return nil, fmt.Errorf("preflight: section %q differs from EXPERIMENTS.md", head)
		}
	}
	if len(have) == 0 {
		return nil, fmt.Errorf("preflight: repro wrote no sections")
	}
	if e.full() {
		// The fault experiments draw their plans from -fault-seed; every
		// other section is seed-independent and must match at any seed.
		r.want = record
		for head := range r.want {
			if e.seed != 1 && (strings.HasPrefix(head, "fault1 ") || strings.HasPrefix(head, "fault2 ")) {
				delete(r.want, head)
			}
		}
		if len(r.want) < len(ids)-2 {
			return nil, fmt.Errorf("EXPERIMENTS.md has %d sections, repro -list has %d experiments", len(r.want), len(ids))
		}
		if e.seed == 1 {
			r.wantWhole = want
		}
	} else {
		r.args = append(r.args, "-sf", "2")
	}
	return r, nil
}

// setupHTAP prepares htap_sf1000. There is no committed record at SF
// 1000, so the check is that the program succeeds and every run of it
// writes the same bytes; the workload has no random input.
func setupHTAP(e env) (instance, error) {
	ids, err := listExperiments(e.root)
	if err != nil {
		return nil, err
	}
	found := false
	for _, id := range ids {
		found = found || id == "htap1"
	}
	if !found {
		return nil, fmt.Errorf("repro -list does not name htap1 (have %v)", ids)
	}
	// Preflight at SF 10: the experiment must run before SF 1000 is paid for.
	if res, err := runToCompletion(binPath(e.root, "repro"), "-exp", "htap1", "-sf", "10", "-j", "1", "-shards", "1"); err != nil {
		return nil, err
	} else if !strings.Contains(res.stdout, "htap1") {
		return nil, fmt.Errorf("preflight: repro -exp htap1 printed %.80q", res.stdout)
	}
	dir, err := os.MkdirTemp(e.out, "htap-")
	if err != nil {
		return nil, err
	}
	sf := 1000 * e.scale
	return &reproInstance{e: e, name: "htap_sf1000", dir: dir, experiments: 1,
		args: []string{"-exp", "htap1", "-sf", strconv.FormatFloat(sf, 'g', -1, 64), "-j", "1", "-shards", "1"}}, nil
}

// listExperiments runs repro -list and returns the IDs.
func listExperiments(root string) ([]string, error) {
	res, err := runToCompletion(binPath(root, "repro"), "-list")
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(res.stdout), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ids = append(ids, f[0])
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("repro -list printed no experiments")
	}
	return ids, nil
}

func (r *reproInstance) measure(d time.Duration, tr *tracer, parent int) measurement {
	m := measurement{unitsPerOp: r.experiments}
	outPath := filepath.Join(r.dir, "out.txt")
	benchPath := filepath.Join(r.dir, "bench.json")
	args := append(append([]string(nil), r.args...), "-o", outPath)
	if tr != nil {
		// -times and -bench-json make the program report what only it can
		// see (per-experiment wall, kernel events, cache traffic); they
		// stay off on the untraced run so the measured command is the one
		// a user types.
		args = append(args, "-times", "-bench-json", "-bench-o", benchPath, "-bench-force")
	}
	begin := time.Now()
	for time.Since(begin) < d {
		m.attempted++
		start := time.Now()
		res, err := runToCompletion(binPath(r.e.root, "repro"), args...)
		end := time.Now()
		m.latencies = append(m.latencies, res.wall.Seconds())
		if res.rssMB > r.rssMB {
			r.rssMB = res.rssMB
		}
		if err != nil {
			m.fail("%v", err)
			continue
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			m.fail("%v", err)
			continue
		}
		if why := r.check(got); why != "" {
			m.fail("%s", why)
		}
		m.setExact(r.name+".output_sha", r.first)
		if tr != nil {
			op := tr.add(parent, "repro", "repro "+strings.Join(r.args, " "), 0, start, end, false)
			r.traceRun(tr, op, start, end, res.stderr, benchPath, &m)
		}
	}
	m.wall = time.Since(begin)
	return m
}

// check compares one run's output with the expected record and with the
// first run's; it returns the reason for a mismatch, or "".
func (r *reproInstance) check(got []byte) string {
	sum := hashHex(got)
	if r.first == "" {
		r.first = sum
	}
	switch {
	case len(got) == 0:
		return "empty output"
	case sum != r.first:
		return fmt.Sprintf("output hash %s differs from the first run's %s", sum, r.first)
	case r.wantWhole != nil && string(got) != string(r.wantWhole):
		return "output differs from EXPERIMENTS.md"
	}
	if r.want != nil {
		have := splitSections(string(got))
		for head, text := range r.want {
			if have[head] != text {
				return fmt.Sprintf("section %q differs from EXPERIMENTS.md", head)
			}
		}
	}
	return ""
}

// traceRun turns what the program printed about itself into child spans
// of one run: per-experiment wall times become back-to-back experiment
// spans (experiments run serially under -j 1), centred in the run, and
// the perf snapshot's counters become exact counts.
func (r *reproInstance) traceRun(tr *tracer, op int, start, end time.Time, stderr, benchPath string, m *measurement) {
	type expWall struct {
		id string
		d  time.Duration
	}
	var walls []expWall
	var sum time.Duration
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[2] == "ms" {
			if ms, err := strconv.ParseFloat(f[1], 64); err == nil {
				d := time.Duration(ms * float64(time.Millisecond))
				walls = append(walls, expWall{f[0], d})
				sum += d
			}
		}
	}
	at := start.Add((end.Sub(start) - sum) / 2)
	for _, w := range walls {
		tr.add(op, "experiments", w.id, 0, at, at.Add(w.d), true)
		at = at.Add(w.d)
	}
	b, err := os.ReadFile(benchPath)
	if err != nil {
		m.note("perf snapshot: %v", err)
		return
	}
	var snap struct {
		Events      uint64 `json:"events"`
		CacheHits   int64  `json:"cache_hits"`
		CacheMisses int64  `json:"cache_misses"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		m.note("perf snapshot: %v", err)
		return
	}
	m.setExact(r.name+".sim_events", strconv.FormatUint(snap.Events, 10))
	m.setExact(r.name+".join_cache", fmt.Sprintf("%d hits / %d misses", snap.CacheHits, snap.CacheMisses))
}

func (r *reproInstance) verify(*measurement)         {}
func (r *reproInstance) peakRSSMB() (float64, error) { return r.rssMB, nil }
func (r *reproInstance) close()                      { os.RemoveAll(r.dir) }

// joinMatInstance is join_mat_sf2: the materialised Q3 join, in process.
type joinMatInstance struct {
	spec     pstore.JoinSpec
	cfg      pstore.Config
	wantRows int64
	wantSum  uint64
}

// matQ3 is the materialised Q3 join definition at a scale factor.
func matQ3(sf float64) pstore.JoinSpec {
	spec := workload.Q3Join(tpch.ScaleFactor(sf), 0.05, 0.05, pstore.DualShuffle)
	spec.Build.Materialize, spec.Probe.Materialize = true, true
	return spec
}

// setupJoinMat builds the table definitions, computes the expected
// answer with the independent reference join, and runs the join once:
// the first join of a process grows the heap to its working size (and is
// a third slower for it), which is set-up, not steady state — paid here,
// where setup_s shows it. The workload has no random input: TPC-H rows
// are a function of the scale factor.
func setupJoinMat(e env) (instance, error) {
	j := &joinMatInstance{spec: matQ3(2 * e.scale), cfg: pstore.Config{WarmCache: true, BatchRows: 4096}}
	j.wantRows, j.wantSum = pstore.ReferenceJoin(j.spec.Build, j.spec.Probe, j.spec.BuildSel, j.spec.ProbeSel)
	if j.wantRows == 0 {
		return nil, fmt.Errorf("reference join produced no rows at SF %v", j.spec.Build.SF)
	}
	if warm := j.measure(0, nil, 0); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up join: %v", warm.failures)
	}
	return j, nil
}

func (j *joinMatInstance) measure(d time.Duration, tr *tracer, parent int) measurement {
	var m measurement
	begin := time.Now()
	for m.attempted == 0 || time.Since(begin) < d {
		m.attempted++
		// Each join starts from a collected heap, as it would in a fresh
		// process: otherwise the previous join's garbage decides both the
		// collector's pacing and the resident-set peak.
		runtime.GC()
		events0 := sim.TotalEvents()
		start := time.Now()
		c, err := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
		built := time.Now()
		if err != nil {
			m.fail("cluster.New: %v", err)
			continue
		}
		res, joules, err := pstore.RunJoin(c, j.cfg, j.spec)
		end := time.Now()
		m.latencies = append(m.latencies, end.Sub(start).Seconds())
		op := tr.add(parent, "benchmark", "join", 0, start, end, false)
		tr.add(op, "cluster", "cluster.New", 0, start, built, false)
		tr.add(op, "pstore", "pstore.RunJoin", 0, built, end, false)
		switch {
		case err != nil:
			m.fail("pstore.RunJoin: %v", err)
		case res.OutputRows != j.wantRows || res.Checksum != j.wantSum:
			m.fail("join answered %d rows / checksum %d, reference join %d / %d", res.OutputRows, res.Checksum, j.wantRows, j.wantSum)
		}
		m.setExact("join_mat_sf2.sim_events", strconv.FormatUint(sim.TotalEvents()-events0, 10))
		m.setExact("join_mat_sf2.output", fmt.Sprintf("%d rows / checksum %d / %.9g s / %.9g J", res.OutputRows, res.Checksum, res.Seconds, joules))
	}
	m.wall = time.Since(begin)
	return m
}

func (j *joinMatInstance) verify(*measurement)         {}
func (j *joinMatInstance) peakRSSMB() (float64, error) { return selfPeakRSSMB() }
func (j *joinMatInstance) close()                      {}
