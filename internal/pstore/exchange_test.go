package pstore

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/delta"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

// exchangeCase is one cell of the exchange matrix: every routing policy
// of both sides (Method × owners), with and without real rows, on warm
// and cold scans.
type exchangeCase struct {
	name string
	cfg  Config
	spec JoinSpec
}

// exchangeMatrix enumerates Method × owners × {materialised, phantom} ×
// {warm, cold} on a 2 Beefy + 2 Wimpy cluster.
// Prepartitioned with a Beefy-only owner set is refused at launch (every
// node must build), so those cells are left out.
func exchangeMatrix() []exchangeCase {
	var cases []exchangeCase
	for _, method := range []JoinMethod{DualShuffle, Broadcast, Prepartitioned} {
		for _, beefyOnly := range []bool{false, true} {
			if method == Prepartitioned && beefyOnly {
				continue
			}
			for _, mat := range []bool{true, false} {
				for _, warm := range []bool{true, false} {
					build, probe := smallDefs(mat)
					cfg := Config{BatchRows: 512, WarmCache: warm}
					if !mat {
						build.SF, probe.SF = 1, 1
						cfg.BatchRows = 20_000
					}
					if method == Prepartitioned {
						build.SegmentColumn, probe.SegmentColumn = "O_ORDERKEY", "L_ORDERKEY"
					}
					spec := JoinSpec{Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.25, Method: method}
					name := method.String() + "/all"
					if beefyOnly {
						spec.BuildNodes = []int{0, 1}
						name = method.String() + "/beefy"
					}
					name += map[bool]string{true: "/mat", false: "/phantom"}[mat]
					name += map[bool]string{true: "/warm", false: "/cold"}[warm]
					cases = append(cases, exchangeCase{name: name, cfg: cfg, spec: spec})
				}
			}
		}
	}
	return cases
}

// launch starts the case's join on a fresh 2 Beefy + 2 Wimpy cluster.
func (cs exchangeCase) launch(t *testing.T) (*cluster.Cluster, *Exec, *Handle) {
	t.Helper()
	c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, cs.cfg)
	h, err := e.LaunchJoin("q", cs.spec)
	if err != nil {
		t.Fatal(err)
	}
	return c, e, h
}

// phantomWant holds the parent commit's (the hand-copied build/probe
// loops') OutputRows and Seconds for every phantom cell: the exchange
// must reproduce them to the bit.
var phantomWant = map[string]struct {
	rows    int64
	seconds float64
}{
	"dual-shuffle/all/phantom/warm":   {150000, 0.06772586454371426},
	"dual-shuffle/all/phantom/cold":   {150000, 0.14117729130962556},
	"dual-shuffle/beefy/phantom/warm": {150000, 0.13121442736737696},
	"dual-shuffle/beefy/phantom/cold": {150000, 0.1494743373816388},
	"broadcast/all/phantom/warm":      {150000, 0.05828833249392662},
	"broadcast/all/phantom/cold":      {150000, 0.14182006113646597},
	"broadcast/beefy/phantom/warm":    {150000, 0.1045909422373581},
	"broadcast/beefy/phantom/cold":    {150000, 0.143255437635423},
	"prepartitioned/all/phantom/warm": {150000, 0.04052258635961032},
	"prepartitioned/all/phantom/cold": {150000, 0.13962405275071363},
}

// TestExchangeMatrixMatchesOracle: every materialised cell equals the
// serial reference join's rows and checksum, every phantom cell equals
// the committed parent-commit result exactly, and no cursor stays open.
func TestExchangeMatrixMatchesOracle(t *testing.T) {
	for _, cs := range exchangeMatrix() {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			c, e, h := cs.launch(t)
			c.Run()
			if !h.Done.Fired() || h.Err != nil {
				t.Fatalf("join did not complete cleanly: fired=%v err=%v", h.Done.Fired(), h.Err)
			}
			if n := e.OpenCursors(); n != 0 {
				t.Fatalf("%d cursors left open", n)
			}
			c.Stop()
			res, spec := h.Result, cs.spec
			if spec.Build.Materialize {
				wantRows, wantSum := ReferenceJoin(spec.Build, spec.Probe, spec.BuildSel, spec.ProbeSel)
				if wantRows == 0 {
					t.Fatal("degenerate reference")
				}
				if res.OutputRows != wantRows || res.Checksum != wantSum {
					t.Fatalf("got (%d, %d), reference (%d, %d)", res.OutputRows, res.Checksum, wantRows, wantSum)
				}
				return
			}
			want, ok := phantomWant[cs.name]
			if !ok {
				t.Fatalf("no committed result; this run gives {%d, %v}", res.OutputRows, res.Seconds)
			}
			if res.OutputRows != want.rows || res.Seconds != want.seconds {
				t.Fatalf("got {%d, %v}, parent commit {%d, %v}", res.OutputRows, res.Seconds, want.rows, want.seconds)
			}
		})
	}
}

// TestExchangeAbortAtSeededTimes aborts every cell at 20 pseudo-random
// virtual times inside its run. Whatever each scan, ship and consumer
// process was doing at that instant, the drain must finish: Done fires
// with the abort reason, no cursor stays open and nothing stays in
// flight.
func TestExchangeAbortAtSeededTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reason := errors.New("seeded abort")
	for _, cs := range exchangeMatrix() {
		t.Run(cs.name, func(t *testing.T) {
			c, _, h := cs.launch(t)
			c.Run()
			c.Stop()
			full := h.Result.Seconds
			if full <= 0 {
				t.Fatalf("unaborted run took %v s", full)
			}
			for i := 0; i < 20; i++ {
				at := rng.Float64() * full
				c, e, h := cs.launch(t)
				c.Eng.At(at, func() { h.Abort(reason) })
				c.Run()
				switch {
				case !h.Done.Fired():
					t.Errorf("abort at t=%v: Done never fired", at)
				case !errors.Is(h.Err, reason):
					t.Errorf("abort at t=%v: Err = %v, want the abort reason", at, h.Err)
				case e.OpenCursors() != 0 || e.InFlight() != 0:
					t.Errorf("abort at t=%v: %d cursors open, %d queries in flight", at, e.OpenCursors(), e.InFlight())
				}
				c.Stop()
			}
		})
	}
}

// TestJoinSpawnsNoProcess: a join is tasks end to end — scans, disk pumps,
// ship, consumers, finalizer — so running one resumes no process. Every
// cell of the exchange matrix (warm and cold, phantom and materialised,
// all three methods) and one join whose probe scans delta stores' merged
// views (their inserts loaded by a process beforehand) run without a
// coroutine switch, leave no cursor open, and, where rows are
// materialised, equal the reference join.
func TestJoinSpawnsNoProcess(t *testing.T) {
	build, probe := smallDefs(false)
	build.SF, probe.SF = 1, 1
	merged := exchangeCase{name: "dual-shuffle/all/phantom/warm/merged", cfg: Config{BatchRows: 20_000, WarmCache: true},
		spec: JoinSpec{Build: build, Probe: probe, BuildSel: 0.10, ProbeSel: 0.25, Method: DualShuffle}}
	for _, cs := range append(exchangeMatrix(), merged) {
		t.Run(cs.name, func(t *testing.T) {
			c, err := cluster.New(cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			e := New(c, cs.cfg)
			if cs.name == merged.name {
				parts, err := storage.PartitionTable(probe, len(c.Nodes), cs.cfg.BatchRows)
				if err != nil {
					t.Fatal(err)
				}
				set := delta.NewSet()
				for nd, part := range parts {
					st, err := delta.NewStore(part, nd, c.Nodes[nd].CPU, delta.Config{})
					if err != nil {
						t.Fatal(err)
					}
					set.Attach(probe.Table, nd, st)
					c.Eng.Go("load", func(p *sim.Proc) {
						if err := st.Apply(p, delta.Write{Op: delta.OpInsert, Rows: 10_000}); err != nil {
							t.Error(err)
						}
					})
				}
				c.Run()
				e.AttachDeltas(set)
			}
			before := c.Eng.Stats()
			h, err := e.LaunchJoin("q", cs.spec)
			if err != nil {
				t.Fatal(err)
			}
			c.Run()
			if s := c.Eng.Stats(); s.Resumes+s.Continues != before.Resumes+before.Continues || s.Events == before.Events {
				t.Fatalf("kernel did %+v, %+v before the join: the join ran a process", s, before)
			}
			if base := phantomWant["dual-shuffle/all/phantom/warm"].rows; cs.name == merged.name && h.Result.OutputRows <= base {
				t.Fatalf("merged view gave %d rows, no more than the base tables' %d: the inserts were not read", h.Result.OutputRows, base)
			}
			if !h.Done.Fired() || h.Err != nil || h.Result.OutputRows == 0 {
				t.Fatalf("join did not complete cleanly: fired=%v err=%v rows=%d", h.Done.Fired(), h.Err, h.Result.OutputRows)
			}
			if n := e.OpenCursors(); n != 0 {
				t.Fatalf("%d cursors left open", n)
			}
			if spec := cs.spec; spec.Build.Materialize {
				rows, sum := ReferenceJoin(spec.Build, spec.Probe, spec.BuildSel, spec.ProbeSel)
				if h.Result.OutputRows != rows || h.Result.Checksum != sum {
					t.Fatalf("got (%d, %d), reference (%d, %d)", h.Result.OutputRows, h.Result.Checksum, rows, sum)
				}
			}
		})
	}
}
