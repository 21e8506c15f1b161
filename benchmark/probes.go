package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/pstore"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/service/fairq"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// A probe measures one module from outside: a loop with a fixed number
// of operations over the module's public functions, timed by the
// benchmark. Operation counts are constants (scaled only by the smoke
// scale), so a probe does the same work on every commit and its counts
// can be compared to the digit.

// prober carries the state the probes share.
type prober struct {
	e   env
	tr  *tracer
	out map[string]float64
	top int // parent span of every probe span
	// suite is the experiment suite as the experiments probe ran it, kept
	// for the rendering probes.
	suite []runner.Result
}

// time runs fn once inside a span of the given layer and returns its
// wall time.
func (p *prober) time(layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	p.tr.add(p.top, layer, name, 0, start, end, false)
	return end.Sub(start)
}

// perOp is time for the median of three passes, divided by n operations,
// in nanoseconds: three passes because a sub-100 ms loop on a shared
// machine is easily hit by one scheduling hiccup, each from a collected
// heap so that one pass's garbage is not the next one's pause.
func (p *prober) perOp(layer, name string, n int, fn func()) float64 {
	var passes []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		passes = append(passes, float64(p.time(layer, name, fn)))
	}
	return median(passes) / float64(n)
}

// mallocs counts heap allocations fn makes.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// runProbes runs every probe and stores the per-layer metrics in out.
func runProbes(e env, tr *tracer, out map[string]float64) error {
	p := &prober{e: e, tr: tr, out: out}
	p.top = tr.open(0, "benchmark", "probes")
	defer tr.close(p.top)
	for _, probe := range []func() error{
		p.simProbes, p.storageProbes, p.clusterProbes, p.pstoreProbes, p.matJoinProbe,
		p.deltaProbes, p.faultProbes, p.experimentProbes, p.reportProbes,
		p.serviceProbes, p.wireProbe, p.fairqProbes, p.replayCoreProbes,
	} {
		if err := probe(); err != nil {
			return err
		}
		runtime.GC() // one probe's garbage is not the next probe's pause
	}
	return nil
}

func (p *prober) simProbes() error {
	n := p.e.scaled(300_000, 3_000)
	var allocs float64
	p.out["sim.heap_ns_per_event"] = p.perOp("sim", "Schedule+Run", n, func() {
		allocs = mallocs(func() {
			eng := sim.New()
			for j := 0; j < n; j++ {
				eng.Schedule(float64(j%17), func() {})
			}
			eng.Run()
		})
	})
	p.out["sim.allocs_per_event"] = allocs / float64(n)

	const procs = 64
	holds := p.e.scaled(2_000, 20)
	p.out["sim.hold_ns_per_switch"] = p.perOp("sim", "Proc.Hold", procs*holds, func() {
		eng := sim.New()
		for i := 0; i < procs; i++ {
			eng.Go("holder", func(pr *sim.Proc) {
				for j := 0; j < holds; j++ {
					pr.Hold(1)
				}
			})
		}
		eng.Run()
	})

	items := p.e.scaled(100_000, 1_000)
	p.out["sim.queue_ns_per_handoff"] = p.perOp("sim", "Queue.Put/Get", items, func() {
		eng := sim.New()
		q := sim.NewQueue[int]("probe", 16)
		eng.Go("producer", func(pr *sim.Proc) {
			for j := 0; j < items; j++ {
				q.Put(pr, j)
			}
			q.Close()
		})
		eng.Go("consumer", func(pr *sim.Proc) {
			for {
				if _, ok := q.Get(pr); !ok {
					return
				}
			}
		})
		eng.Run()
	})

	const contenders = 8
	jobs := p.e.scaled(10_000, 100)
	p.out["sim.server_ns_per_process"] = p.perOp("sim", "Server.Process", contenders*jobs, func() {
		eng := sim.New()
		srv := sim.NewServer(eng, "cpu", 1e6)
		for i := 0; i < contenders; i++ {
			eng.Go("worker", func(pr *sim.Proc) {
				for j := 0; j < jobs; j++ {
					srv.Process(pr, 1000)
				}
			})
		}
		eng.Run()
	})
	return nil
}

func (p *prober) storageProbes() error {
	// LINEITEM at SF 0.2 (1.2M rows): the materialising partitioner, then
	// the block cursor over what it built.
	def := storage.TableDef{Table: tpch.Lineitem, SF: 0.2, Width: tpch.Q3ProjectedWidth,
		Placement: storage.HashSegmented, SegmentColumn: "L_SHIPDATE", Materialize: true}
	if !p.e.full() {
		def.SF = 0.004
	}
	var parts []*storage.Partition
	var err error
	d := p.time("storage", "PartitionTable", func() { parts, err = storage.PartitionTable(def, 4, 4096) })
	if err != nil {
		return err
	}
	rows := float64(def.TotalRows())
	p.out["storage.partition_rows_per_s"] = rows / d.Seconds()

	// Draining a materialised partition hands out existing blocks, so one
	// pass is microseconds; fifty passes make it measurable.
	const drains = 50
	var batches []storage.Batch
	drained := 0
	ns := p.perOp("storage", "Partition.Cursor", drains, func() {
		for pass := 0; pass < drains; pass++ {
			batches, drained = batches[:0], 0
			for _, part := range parts {
				cur := part.Cursor(4096)
				for {
					b, ok := cur.Next()
					if !ok {
						break
					}
					drained += b.Rows
					batches = append(batches, b)
				}
				cur.Close()
			}
		}
	})
	if float64(drained) != rows {
		return fmt.Errorf("storage probe: cursors drained %d of %v rows", drained, rows)
	}
	p.out["storage.cursor_rows_per_s"] = rows / (ns / 1e9)

	// Filter/gather: keep every second row of every block.
	idx := make([]int, 0, 4096)
	p.out["storage.filter_gather_ns_per_row"] = p.perOp("storage", "FilterBatch", drained, func() {
		kept := 0
		for _, b := range batches {
			idx = idx[:0]
			for i := 0; i < b.Rows; i += 2 {
				idx = append(idx, i)
			}
			kept += storage.FilterBatch(b, idx).Rows
		}
		sink = kept
	})

	keys := p.e.scaled(1_000_000, 10_000)
	var table *storage.Int64Table
	p.out["storage.inttable_add_ns"] = p.perOp("storage", "Int64Table.Add", keys, func() {
		table = storage.NewInt64Table(keys)
		for k := 0; k < keys; k++ {
			table.Add(int64(mix64(uint64(k))>>1), 1)
		}
	})
	p.out["storage.inttable_get_ns"] = p.perOp("storage", "Int64Table.Get", keys, func() {
		var sum int64
		for k := 0; k < keys; k++ {
			sum += table.Get(int64(mix64(uint64(k)) >> 1))
		}
		sink = sum
	})
	p.out["storage.inttable_grow_ns"] = p.perOp("storage", "Int64Table.Add (unsized)", keys, func() {
		t := storage.NewInt64Table(0)
		for k := 0; k < keys; k++ {
			t.Add(int64(mix64(uint64(k))>>1), 1)
		}
		sink = t.Len()
	})
	return nil
}

func (p *prober) clusterProbes() error {
	builds := p.e.scaled(300, 10)
	var err error
	ns := p.perOp("cluster", "cluster.New", builds, func() {
		for i := 0; i < builds && err == nil; i++ {
			sink, err = cluster.New(cluster.Homogeneous(8, hw.ClusterV()))
		}
	})
	if err != nil {
		return err
	}
	p.out["cluster.new_us"] = ns / 1e3

	msgs := p.e.scaled(50_000, 500)
	got := 0
	p.out["cluster.send_recv_ns_per_msg"] = p.perOp("cluster", "Send+Recv", msgs, func() {
		c, cerr := cluster.New(cluster.Homogeneous(2, hw.ClusterV()))
		if cerr != nil {
			err = cerr
			return
		}
		mb := cluster.NewMailbox("probe", 1, 16)
		c.Eng.Go("sender", func(pr *sim.Proc) {
			for i := 0; i < msgs; i++ {
				c.Send(pr, cluster.Message{From: 0, To: 1, Dest: mb, Batch: storage.Batch{Rows: 1000, Width: 20}})
			}
			c.Send(pr, cluster.Message{From: 0, To: 1, Dest: mb, EOS: true})
		})
		got = 0
		c.Eng.Go("receiver", func(pr *sim.Proc) {
			for {
				if _, ok := mb.Recv(pr); !ok {
					return
				}
				got++
			}
		})
		// The ingress pumps never exit on their own; the run ends when
		// nothing but them is left to schedule.
		c.Run()
	})
	if err != nil {
		return err
	}
	if got != msgs {
		return fmt.Errorf("cluster probe: received %d of %d messages", got, msgs)
	}
	return nil
}

// probeEngineCfg is the engine configuration of the experiment suite.
var probeEngineCfg = pstore.Config{WarmCache: true, BatchRows: 200_000}

func eightNodes() (*cluster.Cluster, error) {
	return cluster.New(cluster.Homogeneous(8, hw.ClusterV()))
}

func (p *prober) pstoreProbes() error {
	sf := tpch.ScaleFactor(100)
	if !p.e.full() {
		sf = 2
	}
	joinMS := func(name string, spec pstore.JoinSpec) (pstore.JoinResult, float64, float64, error) {
		var res pstore.JoinResult
		var joules float64
		var err error
		ns := p.perOp("pstore", name, 1, func() {
			c, cerr := eightNodes()
			if cerr != nil {
				err = cerr
				return
			}
			res, joules, err = pstore.RunJoin(c, probeEngineCfg, spec)
		})
		return res, joules, ns / 1e6, err
	}
	shuffle := workload.Q3Join(sf, 0.05, 0.05, pstore.DualShuffle)
	events0 := sim.TotalEvents()
	var res pstore.JoinResult
	var joules float64
	var err error
	allocs := mallocs(func() {
		c, cerr := eightNodes()
		if cerr != nil {
			err = cerr
			return
		}
		res, joules, err = pstore.RunJoin(c, probeEngineCfg, shuffle)
	})
	if err != nil {
		return err
	}
	p.out["pstore.join_sf100_events"] = float64(sim.TotalEvents() - events0)
	p.out["pstore.join_sf100_allocs"] = allocs
	p.out["pstore.join_sf100_simsec"] = res.Seconds
	p.out["pstore.join_sf100_joules"] = joules
	for name, spec := range map[string]pstore.JoinSpec{
		"pstore.join_shuffle_sf100_ms":   shuffle,
		"pstore.join_broadcast_sf100_ms": workload.Q3Join(sf, 0.05, 0.05, pstore.Broadcast),
		"pstore.join_prepart_sf100_ms":   workload.Q3JoinPrepartitioned(sf, 0.05, 0.05),
	} {
		if _, _, p.out[name], err = joinMS(name, spec); err != nil {
			return err
		}
	}
	d := p.time("pstore", "RunConcurrent k=4", func() {
		c, cerr := eightNodes()
		if cerr != nil {
			err = cerr
			return
		}
		_, _, _, err = pstore.RunConcurrent(c, probeEngineCfg, shuffle, 4)
	})
	if err != nil {
		return err
	}
	p.out["pstore.concurrent4_sf100_ms"] = float64(d) / 1e6

	// Cache hit: fingerprint the (fresh, never run) cluster + config +
	// spec and look the key up — what every serve_miss request pays
	// before the engine and every repeated experiment join pays instead
	// of it.
	cache := pstore.NewCache(nil)
	c, err := eightNodes()
	if err != nil {
		return err
	}
	if _, _, _, err = cache.RunJoinHit(c, probeEngineCfg, shuffle); err != nil {
		return err
	}
	fresh, err := eightNodes()
	if err != nil {
		return err
	}
	lookups := p.e.scaled(5_000, 50)
	hits := 0
	var hitAllocs float64
	p.out["pstore.cache_hit_ns"] = p.perOp("pstore", "Cache.RunJoinHit", lookups, func() {
		hits = 0
		hitAllocs = mallocs(func() {
			for i := 0; i < lookups; i++ {
				if _, _, hit, _ := cache.RunJoinHit(fresh, probeEngineCfg, shuffle); hit {
					hits++
				}
			}
		})
	})
	if hits != lookups {
		return fmt.Errorf("pstore probe: %d of %d cache lookups hit", hits, lookups)
	}
	p.out["pstore.cache_hit_allocs"] = hitAllocs / float64(lookups)

	plans := p.e.scaled(20_000, 200)
	p.out["pstore.plan_us"] = p.perOp("pstore", "PlanJoin", plans, func() {
		for i := 0; i < plans && err == nil; i++ {
			sink, err = pstore.PlanJoin(fresh, pstore.PlanRequest{Build: shuffle.Build, Probe: shuffle.Probe,
				BuildSel: 0.05, ProbeSel: 0.05, BuildKeyColumn: "O_ORDERKEY", ProbeKeyColumn: "L_ORDERKEY"})
		}
	}) / 1e3
	return err
}

// matJoinProbe splits the materialised join of join_mat_sf2 (at SF 0.25)
// into the storage work it contains and the rest. LaunchJoin partitions
// and materialises both tables before it returns; running the cluster
// then executes the join. Timing the two calls apart gives the join's
// self time directly; RunJoin minus separately timed PartitionTable calls
// would be a 15 ms difference of two 200 ms timings, smaller than their
// noise.
func (p *prober) matJoinProbe() error {
	spec := matQ3(0.25)
	if !p.e.full() {
		spec = matQ3(0.01)
	}
	cfg := pstore.Config{WarmCache: true, BatchRows: 4096}
	var err error
	var res pstore.JoinResult
	var self []float64
	for i := 0; i < 3 && err == nil; i++ {
		runtime.GC()
		c, cerr := cluster.New(cluster.Homogeneous(4, hw.ClusterV()))
		if cerr != nil {
			return cerr
		}
		var h *pstore.Handle
		exec := pstore.New(c, cfg)
		p.time("storage", "LaunchJoin (PartitionTable x2)", func() { h, err = exec.LaunchJoin("probe", spec) })
		if err != nil {
			return err
		}
		self = append(self, float64(p.time("pstore", "Cluster.Run (materialised join)", c.Run)))
		res, err = h.Result, h.Err
		if !h.Done.Fired() {
			err = fmt.Errorf("pstore probe: the materialised join did not complete")
		}
	}
	if err != nil {
		return err
	}
	p.out["pstore.mat_join_self_ms"] = median(self) / 1e6
	var rows int64
	var sum uint64
	d := p.time("pstore", "ReferenceJoin", func() {
		rows, sum = pstore.ReferenceJoin(spec.Build, spec.Probe, spec.BuildSel, spec.ProbeSel)
	})
	if rows != res.OutputRows || sum != res.Checksum {
		return fmt.Errorf("pstore probe: join answered %d rows / %d, reference %d / %d", res.OutputRows, res.Checksum, rows, sum)
	}
	p.out["pstore.reference_join_ms"] = float64(d) / 1e6
	return nil
}

func (p *prober) deltaProbes() error {
	baseRows := int64(p.e.scaled(1_000_000, 10_000))
	tail := int(baseRows / 10)
	generic := storage.TableDef{Table: tpch.Part, Width: 8, RowsOverride: baseRows,
		Placement: storage.HashSegmented, Materialize: true}
	parts, err := storage.PartitionTable(generic, 1, 50_000)
	if err != nil {
		return err
	}
	// drive runs fn as a simulation process over a fresh store.
	drive := func(part *storage.Partition, fn func(pr *sim.Proc, s *delta.Store)) error {
		eng := sim.New()
		s, err := delta.NewStore(part, 0, sim.NewServer(eng, "cpu", 1e12), delta.Config{})
		if err != nil {
			return err
		}
		eng.Go("probe", func(pr *sim.Proc) { fn(pr, s) })
		eng.Run()
		return nil
	}
	// The write mix of the HTAP appliers: inserts of fresh keys, upserts
	// and deletes of base keys, in batches of 1000.
	const batch = 1000
	writes := make([]delta.Write, 0, tail/batch)
	for b := 0; b < tail/batch; b++ {
		w := delta.Write{Op: []delta.Op{delta.OpInsert, delta.OpUpsert, delta.OpInsert, delta.OpDelete}[b%4], Rows: batch, Keys: make([]int64, batch)}
		for i := range w.Keys {
			k := int64(b*batch + i)
			if w.Op == delta.OpInsert {
				k += baseRows
			}
			w.Keys[i] = k
		}
		writes = append(writes, w)
	}
	var applyErr error
	var scan, merge time.Duration
	var scanned int64
	apply := p.time("delta", "Store.Apply (materialised)", func() {
		err = drive(parts[0], func(pr *sim.Proc, s *delta.Store) {
			start := time.Now()
			for _, w := range writes {
				if applyErr = s.Apply(pr, w); applyErr != nil {
					return
				}
			}
			applied := time.Now()
			cur := s.MergedCursor(50_000)
			for {
				b, ok := cur.Next()
				if !ok {
					break
				}
				scanned += int64(b.Rows)
			}
			cur.Close()
			scannedAt := time.Now()
			s.Merge(pr)
			merged := time.Now()
			p.tr.add(p.top, "delta", "MergedCursor drain", 0, applied, scannedAt, false)
			p.tr.add(p.top, "delta", "Store.Merge", 0, scannedAt, merged, false)
			scan, merge = scannedAt.Sub(applied), merged.Sub(scannedAt)
			sink = start
		})
	})
	if err != nil || applyErr != nil {
		return fmt.Errorf("delta probe: %v %v", err, applyErr)
	}
	p.out["delta.apply_ns_per_row"] = float64(apply-scan-merge) / float64(len(writes)*batch)
	p.out["delta.merged_scan_rows_per_s"] = float64(scanned) / scan.Seconds()
	p.out["delta.merge_ms"] = float64(merge) / 1e6

	phantom := generic
	phantom.Materialize = false
	pparts, err := storage.PartitionTable(phantom, 1, 50_000)
	if err != nil {
		return err
	}
	batches := p.e.scaled(200_000, 2_000)
	p.out["delta.phantom_apply_ns_per_batch"] = p.perOp("delta", "Store.Apply (phantom)", batches, func() {
		err = drive(pparts[0], func(pr *sim.Proc, s *delta.Store) {
			for i := 0; i < batches; i++ {
				if applyErr = s.Apply(pr, delta.Write{Op: delta.Op(i % 3), Rows: 50}); applyErr != nil {
					return
				}
			}
		})
	})
	if err != nil || applyErr != nil {
		return fmt.Errorf("delta probe: %v %v", err, applyErr)
	}
	return nil
}

func (p *prober) faultProbes() error {
	sf := tpch.ScaleFactor(100)
	if !p.e.full() {
		sf = 2
	}
	four := func() (*cluster.Cluster, error) { return cluster.New(cluster.Homogeneous(4, hw.ClusterV())) }
	c, err := four()
	if err != nil {
		return err
	}
	crashes := fault.Config{Seed: 1, Horizon: 120, MTTF: 10, MTTR: 2}
	plans := p.e.scaled(2_000, 20)
	p.out["fault.newplan_us"] = p.perOp("fault", "NewPlan", plans, func() {
		for i := 0; i < plans && err == nil; i++ {
			sink, err = fault.NewPlan(crashes, c)
		}
	}) / 1e3
	if err != nil {
		return err
	}

	var fr workload.FaultedResult
	d := p.time("workload", "RunFaulted mttf=10", func() {
		fr, err = workload.RunFaulted(c, probeEngineCfg, workload.FaultedSpec{
			HTAP:   workload.HTAPSpec{SF: sf, Queries: 6},
			Faults: crashes,
			Retry:  pstore.RetryPolicy{Timeout: 30, MaxRetries: 6, Backoff: 0.25, BackoffCap: 2},
		})
	})
	if err != nil {
		return err
	}
	p.out["workload.faulted_mttf10_sf100_ms"] = float64(d) / 1e6
	p.out["workload.faulted_retries"] = float64(fr.Retries)

	if c, err = four(); err != nil {
		return err
	}
	var hr workload.HTAPResult
	d = p.time("workload", "RunHTAP 8 Mrows/s", func() {
		hr, err = workload.RunHTAP(c, probeEngineCfg, workload.HTAPSpec{SF: sf, UpdateRowsPerSec: 8e6})
	})
	if err != nil {
		return err
	}
	p.out["workload.htap_rate8_sf100_ms"] = float64(d) / 1e6
	p.out["workload.htap_txns"] = float64(hr.Txns)
	return nil
}

// experimentProbes runs the whole registry in process the way cmd/repro
// does (one worker, one shard, a shared join cache) at SF 10, a tenth of
// suite_sf100's scale so that the traced run stays short; fig7a/fig7b
// and the model experiments do not depend on the scale factor.
func (p *prober) experimentProbes() error {
	cache := pstore.NewCache(nil)
	sf := tpch.ScaleFactor(10)
	if !p.e.full() {
		sf = 1
	}
	events0 := sim.TotalEvents()
	start := time.Now()
	results, err := runner.Run(experiments.Registry(), runner.Options{Workers: 1,
		Exp: experiments.Options{SF: sf, Shards: 1, Joins: cache}})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	p.suite = results
	events := sim.TotalEvents() - events0
	p.out["sim.events"] = float64(events)
	p.out["sim.host_ns_per_event"] = float64(wall) / float64(events)

	named := map[string]bool{"fig3": true, "fig4": true, "fig7a": true, "fig7b": true,
		"htap1": true, "htap2": true, "fault1": true, "fault2": true}
	var model time.Duration
	var relErr float64
	pairs := 0
	at := start
	for _, r := range results {
		p.tr.add(p.top, "experiments", r.Experiment.ID, 0, at, at.Add(r.Wall), true)
		at = at.Add(r.Wall)
		if named[r.Experiment.ID] {
			p.out["experiments."+r.Experiment.ID+"_ms"] = float64(r.Wall) / 1e6
		} else {
			model += r.Wall
		}
		for _, pair := range r.Result.Pairs {
			relErr += pair.RelErr()
			pairs++
		}
	}
	p.out["experiments.model_ms"] = float64(model) / 1e6
	p.out["experiments.cache_hits"] = float64(cache.Stats().Hits)
	p.out["experiments.cache_misses"] = float64(cache.Stats().Misses)
	if pairs == 0 {
		return fmt.Errorf("experiments probe: no paper-vs-measured pairs")
	}
	p.out["experiments.paper_relerr_mean_pct"] = 100 * relErr / float64(pairs)
	return nil
}

func (p *prober) reportProbes() error {
	var err error
	render := func(name string, fn func(io.Writer, []runner.Result) error) float64 {
		return p.perOp("report", name, 1, func() {
			var buf bytes.Buffer
			if werr := fn(&buf, p.suite); werr != nil {
				err = werr
			}
			sink = buf.Len()
		}) / 1e6
	}
	p.out["report.markdown_ms"] = render("WriteMarkdown", report.WriteMarkdown)
	p.out["report.text_ms"] = render("WriteText", report.WriteText)
	p.out["report.json_ms"] = render("WriteJSON", report.WriteJSON)
	if err != nil {
		return err
	}

	obs := p.e.scaled(2_000_000, 20_000)
	var h report.Histogram
	p.out["report.hist_observe_ns"] = p.perOp("report", "Histogram.Observe", obs, func() {
		for i := 0; i < obs; i++ {
			h.Observe(float64(i%1000+1) * 1e-5)
		}
	})
	qs := p.e.scaled(200_000, 2_000)
	p.out["report.hist_quantile_ns"] = p.perOp("report", "Histogram.Quantile", qs, func() {
		var s float64
		for i := 0; i < qs; i++ {
			s += h.Quantile(0.99)
		}
		sink = s
	})

	resp := report.ServiceResponse{ID: "m-12345", Kind: "join", Tenant: "t1", Status: "ok", Cache: "miss",
		Seconds: 3.0517578125, Joules: 4012.337890625, QueueSeconds: 2.26e-06, WallSeconds: 0.001371}
	encodes := p.e.scaled(100_000, 1_000)
	var allocs float64
	p.out["report.encode_response_ns"] = p.perOp("report", "WriteServiceResponse", encodes, func() {
		allocs = mallocs(func() {
			for i := 0; i < encodes && err == nil; i++ {
				err = report.WriteServiceResponse(io.Discard, resp)
			}
		})
	})
	p.out["report.encode_response_allocs"] = allocs / float64(encodes)
	return err
}

func (p *prober) serviceProbes() error {
	envelopeBody := missBody(1, 7)
	legacy := []byte(`{"id":"q1","sf":10,"build_sel":0.0123457,"probe_sel":0.0456789,"method":"broadcast"}`)
	reject := []byte(`{"v":1,"id":"q1","tenant":"t1","join":{"sf":10,"probe_sell":0.05}}`)
	decodes := p.e.scaled(50_000, 500)
	var bad error
	decode := func(name string, body []byte, wantErr bool) (ns, allocs float64) {
		ns = p.perOp("service", name, decodes, func() {
			allocs = mallocs(func() {
				for i := 0; i < decodes; i++ {
					if _, err := service.Decode(body, true); (err != nil) != wantErr {
						bad = fmt.Errorf("service probe: %s: unexpected decode outcome %v", name, err)
					}
				}
			})
		})
		return ns, allocs / float64(decodes)
	}
	p.out["service.decode_ns"], p.out["service.decode_allocs"] = decode("Decode (envelope)", envelopeBody, false)
	p.out["service.decode_legacy_ns"], _ = decode("Decode (legacy)", legacy, false)
	p.out["service.decode_reject_ns"], _ = decode("Decode (unknown field)", reject, true)
	if bad != nil {
		return bad
	}

	srv, err := service.New(service.Config{Admission: service.Admission{QueueDepth: 64}})
	if err != nil {
		return err
	}
	defer srv.Close()
	do := func(r service.Request) {
		if resp := srv.Do(r); !resp.OK() && bad == nil {
			bad = fmt.Errorf("service probe: %s %s", resp.Status, resp.Error)
		}
	}
	jr := workload.JoinRequest{SF: 10, BuildSel: 0.05, ProbeSel: 0.05}
	hitReq := service.Request{V: 1, ID: "hit", Tenant: "t0", Join: &jr}
	miss := p.time("service", "Server.Do (miss, SF 10)", func() { do(hitReq) })
	p.out["service.do_miss_sf10_ms"] = float64(miss) / 1e6
	calls := p.e.scaled(50_000, 500)
	var allocs float64
	p.out["service.do_hit_ns"] = p.perOp("service", "Server.Do (hit)", calls, func() {
		allocs = mallocs(func() {
			for i := 0; i < calls; i++ {
				do(hitReq)
			}
		})
	})
	p.out["service.do_hit_allocs"] = allocs / float64(calls)

	// Design requests are memoised too, so each call asks for a new
	// target: the analytical model runs every time.
	designs := p.e.scaled(300, 10)
	n := 0
	p.out["service.do_design_us"] = p.perOp("service", "Server.Do (design)", designs, func() {
		for i := 0; i < designs; i++ {
			n++
			do(service.Request{V: 1, ID: "d", Tenant: "t1", Design: &service.DesignRequest{Target: 0.3 + 1e-6*float64(n)}})
		}
	}) / 1e3
	for _, tenant := range []string{"t2", "t3"} {
		hitReq.Tenant = tenant
		do(hitReq)
	}
	snaps := p.e.scaled(20_000, 200)
	p.out["service.metrics_us"] = p.perOp("service", "Server.Metrics", snaps, func() {
		for i := 0; i < snaps; i++ {
			sink = srv.Metrics()
		}
	}) / 1e3
	return bad
}

// wireProbe measures the server's own account of a request — queue wait,
// run time — and what the wire adds on top, on a fixed mini-session over
// loopback HTTP: 300 distinct specs (misses), then 3000 requests over
// sixteen warmed specs (hits). The split of the measured workload itself
// is printed as "observed" lines by the serve workloads; this probe is
// the same procedure in every traced run.
func (p *prober) wireProbe() error {
	e := p.e
	e.seed = 1 // probes do not vary with the workload seed
	run := func(name string, hit bool, requests int) (measurement, error) {
		inst, err := setupServe(e, name, hit)
		if err != nil {
			return measurement{}, err
		}
		defer inst.close()
		s := inst.(*serveInstance)
		var m measurement
		p.time("http", name, func() { m = s.measureN(requests) })
		s.verify(&m)
		if m.failed > 0 {
			return m, fmt.Errorf("wire probe: %s: %v", name, m.failures)
		}
		return m, nil
	}
	miss, err := run("probe_miss", false, e.scaled(300, 30))
	if err != nil {
		return err
	}
	hit, err := run("probe_hit", true, e.scaled(3_000, 100))
	if err != nil {
		return err
	}
	for _, k := range []string{"service.queue_us_p50", "service.queue_us_p99", "service.run_us_p50"} {
		p.out[k] = miss.detail[k]
	}
	for _, k := range []string{"http.overhead_us_p50", "http.overhead_us_p99", "service.server_cpu_us_per_req", "service.memo_hit_ratio"} {
		p.out[k] = hit.detail[k]
	}
	return nil
}

func (p *prober) fairqProbes() error {
	ops := p.e.scaled(1_000_000, 10_000)
	one := func(string) int { return 1 }
	p.out["fairq.push_pop_ns"] = p.perOp("fairq", "Push+Pop (1 tenant)", ops, func() {
		q := fairq.New[int](one)
		for i := 0; i < ops; i++ {
			q.Push("t0", fairq.High, i)
			q.Pop()
		}
	})
	tenants := make([]string, 16)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
	}
	// Sixteen tenants with a standing backlog in both bands, so Pop
	// really walks the DRR ring.
	p.out["fairq.push_pop_16t_ns"] = p.perOp("fairq", "Push+Pop (16 tenants)", ops, func() {
		q := fairq.New[int](one)
		for i := 0; i < 64; i++ {
			q.Push(tenants[i%16], i%2, i)
		}
		for i := 0; i < ops; i++ {
			q.Push(tenants[i%16], i%2, i)
			q.Pop()
		}
	})
	evicts := p.e.scaled(500_000, 5_000)
	p.out["fairq.evict_low_ns"] = p.perOp("fairq", "Push+EvictLow", evicts, func() {
		q := fairq.New[int](one)
		for i := 0; i < 32; i++ {
			q.Push("t0", fairq.Low, i)
		}
		for i := 0; i < evicts; i++ {
			q.Push("t0", fairq.Low, i)
			q.EvictLow("t0")
		}
	})
	return nil
}

func (p *prober) replayCoreProbes() error {
	n := p.e.scaled(50_000, 500)
	var events []replay.Event
	p.out["replay.synthetic_ns_per_event"] = p.perOp("replay", "Synthetic", n, func() {
		events = replay.Synthetic(n, floodTenants, 0.8, 1)
	})
	var buf bytes.Buffer
	if err := replay.WriteTrace(&buf, events); err != nil {
		return err
	}
	text := buf.String()
	var err error
	p.out["replay.load_us_per_event"] = p.perOp("replay", "Load", n, func() {
		var loaded []replay.Event
		if loaded, err = replay.Load(strings.NewReader(text)); err == nil && len(loaded) != n {
			err = fmt.Errorf("replay probe: loaded %d of %d events", len(loaded), n)
		}
	}) / 1e3
	if err != nil {
		return err
	}

	// The design request cmd/serve answers by default: 700 GB x 2800 GB at
	// 10% selectivities on up to eight nodes.
	base := model.FromSpecs(8, hw.ClusterV(), 0, hw.WimpyModelNode())
	base.Bld, base.Prb, base.Sbld, base.Sprb, base.WarmCache = 700e3, 2800e3, 0.1, 0.1, true
	designer := core.Designer{Base: base, MaxNodes: 8}
	recs := p.e.scaled(300, 10)
	p.out["core.recommend_us"] = p.perOp("core", "Designer.Recommend", recs, func() {
		for i := 0; i < recs && err == nil; i++ {
			sink, err = designer.Recommend(0.6)
		}
	}) / 1e3
	return err
}
