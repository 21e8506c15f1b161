package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/delta"
	"repro/internal/pstore"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// HTAPSpec describes one mixed HTAP run: a controlled-rate transactional
// update stream against LINEITEM contending with a sequence of the
// paper's Q3 analytic joins on the same simulated cluster. Every join is
// a dual shuffle at htapSel selectivity on both sides.
//
// Write-path routing: every node runs an ingest front-end that accepts
// its share of the cluster-wide update rate and routes each batch to the
// partition owner round-robin — so (n-1)/n of the write bytes cross the
// fabric (egress + ingress charged like any exchange), each owner's
// applier charges apply CPU into its delta store, and the background
// merge rewrites charge the owner too. Analytics interference therefore
// arrives through all three channels the paper's read-only figures hold
// idle: NIC, write-path CPU and merge CPU.
type HTAPSpec struct {
	// SF is the TPC-H scale factor of the analytic tables.
	SF tpch.ScaleFactor
	// Queries is the number of back-to-back Q3 joins the analytics
	// driver issues (default 3). Queries run sequentially, so analytics
	// throughput is Queries / makespan.
	Queries int
	// UpdateRowsPerSec is the cluster-wide target ingest rate in rows
	// per virtual second; 0 runs the analytics read-only (the baseline
	// every htap series is normalized against).
	UpdateRowsPerSec float64
	// Delta configures the per-node delta stores (zero = defaults;
	// tests shrink the merge thresholds to force merges).
	Delta delta.Config
}

func (s HTAPSpec) withDefaults() HTAPSpec {
	if s.Queries <= 0 {
		s.Queries = 3
	}
	return s
}

// htapSel is the build and probe selectivity of every mixed run's Q3.
const htapSel = 0.05

// updateBatchRows is the rows per transactional batch: 1 MB of 20-byte
// tuples, one "transaction" for energy accounting.
const updateBatchRows = 50_000

// opMix is the deterministic per-node operation cycle the appliers walk:
// mostly inserts, some updates, the odd delete — enough churn that both
// shadowing and tail growth are exercised at every rate.
var opMix = [10]delta.Op{
	delta.OpInsert, delta.OpInsert, delta.OpInsert, delta.OpUpsert,
	delta.OpInsert, delta.OpUpsert, delta.OpInsert, delta.OpUpsert,
	delta.OpInsert, delta.OpDelete,
}

// HTAPResult reports one mixed run.
type HTAPResult struct {
	// Makespan is the virtual time at which the last analytic query
	// completed (the update stream drains shortly after and is not
	// counted in throughput).
	Makespan float64
	// QuerySeconds are the per-query response times, in issue order.
	QuerySeconds []float64
	// Txns and TxnRows count the applied update batches and rows.
	Txns, TxnRows int64
	// Merges counts completed delta-merge cycles across all stores.
	Merges int
	// Joules is the cluster's total energy over the whole run,
	// including the write path and the post-makespan drain window
	// (bounded by one merge-scheduler tick).
	Joules float64
}

// QueriesPerSec is the analytics throughput: queries per virtual second
// of makespan.
func (r HTAPResult) QueriesPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.QuerySeconds)) / r.Makespan
}

// JoulesPerQuery divides the run's total energy evenly across the
// analytic queries — the "energy per query" a mixed deployment actually
// pays, write path included.
func (r HTAPResult) JoulesPerQuery() float64 {
	if len(r.QuerySeconds) == 0 {
		return 0
	}
	return r.Joules / float64(len(r.QuerySeconds))
}

// JoulesPerTxn divides the run's total energy across the applied update
// batches; 0 when the run was read-only.
func (r HTAPResult) JoulesPerTxn() float64 {
	if r.Txns == 0 {
		return 0
	}
	return r.Joules / float64(r.Txns)
}

// htapPlant is the shared machinery of a mixed run: the execution
// engine with delta stores attached, the merge schedulers, and the
// ingest front-ends + appliers pumping the update stream. Both RunHTAP
// and RunFaulted build one and differ only in the analytics driver they
// put on top.
type htapPlant struct {
	e      *pstore.Exec
	join   pstore.JoinSpec
	stores []*delta.Store

	// stopped is written by the analytics driver and read by the ingest
	// front-ends; simulated processes run one at a time, so a plain
	// bool is deterministic (the same pattern the join handles
	// use for their shared counters).
	stopped bool
}

// stop ends the update stream (front-ends send EOS on their next tick)
// and the merge schedulers. Called by the analytics driver at makespan.
func (pl *htapPlant) stop() {
	pl.stopped = true
	for _, st := range pl.stores {
		st.Stop()
	}
}

// stats folds the write-path counters into the result fields.
func (pl *htapPlant) stats() (txns, txnRows int64, merges int) {
	for _, st := range pl.stores {
		s := st.Stats()
		txns += s.Txns
		txnRows += s.Rows
		merges += s.Merges
	}
	return
}

// buildHTAPPlant wires the write path onto the cluster: per-node delta
// stores over the probe-table partitions (attached to a fresh pstore
// engine so scans read merged views), merge schedulers, and — when the
// spec sets an update rate — per-node ingest front-ends and appliers.
func buildHTAPPlant(c *cluster.Cluster, cfg pstore.Config, spec HTAPSpec) (*htapPlant, error) {
	// Dual shuffle is the network-heavy plan, where write traffic
	// interference bites.
	join := Q3Join(spec.SF, htapSel, htapSel, pstore.DualShuffle)
	n := len(c.Nodes)

	e := pstore.New(c, cfg)
	probeParts, err := storage.PartitionTable(join.Probe, n, e.Config().BatchRows)
	if err != nil {
		return nil, err
	}
	stores := make([]*delta.Store, n)
	set := delta.NewSet()
	for i, nd := range c.Nodes {
		st, serr := delta.NewStore(probeParts[i], i, nd.CPU, spec.Delta)
		if serr != nil {
			return nil, serr
		}
		stores[i] = st
		set.Attach(join.Probe.Table, i, st)
	}
	e.AttachDeltas(set)
	for _, st := range stores {
		st.StartMerger(c.Eng)
	}
	pl := &htapPlant{e: e, join: join, stores: stores}

	if spec.UpdateRowsPerSec > 0 {
		interval := float64(updateBatchRows) / (spec.UpdateRowsPerSec / float64(n))
		applyMB := make([]*cluster.Mailbox, n)
		for i := 0; i < n; i++ {
			applyMB[i] = cluster.NewMailbox(fmt.Sprintf("htap.ingest.%d", i), n, e.Config().MailboxCap)
		}
		for i := 0; i < n; i++ {
			i := i
			st := stores[i]
			c.Eng.Go(fmt.Sprintf("htap.apply.%d", i), func(p *sim.Proc) {
				seq := 0
				for {
					b, ok := applyMB[i].Recv(p)
					if !ok {
						return
					}
					op := opMix[seq%len(opMix)]
					seq++
					if aerr := st.Apply(p, delta.Write{Op: op, Rows: b.Rows}); aerr != nil {
						panic(aerr) // phantom writes carry no keys; unreachable
					}
				}
			})
		}
		for i := 0; i < n; i++ {
			i := i
			rr := i // stagger the round-robin start across front-ends
			sim.Periodic(c.Eng, fmt.Sprintf("htap.ingest.%d", i), interval, func(p *sim.Proc) bool {
				if pl.stopped {
					for dst := 0; dst < n; dst++ {
						c.Send(p, cluster.Message{From: i, To: dst, EOS: true, Dest: applyMB[dst]})
					}
					return false
				}
				dst := rr % n
				rr++
				c.Send(p, cluster.Message{
					From: i, To: dst,
					Batch: storage.Batch{Rows: updateBatchRows, Width: join.Probe.Width},
					Dest:  applyMB[dst],
				})
				return true
			})
		}
	}
	return pl, nil
}

// RunHTAP executes one mixed HTAP run on the cluster: per-node delta
// stores over the LINEITEM partitions (with merge schedulers), per-node
// ingest front-ends + appliers pumping the update stream through the
// fabric, and an analytics driver issuing spec.Queries sequential Q3
// joins whose scans read the stores' merged views. Returns after the
// simulation drains; the result carries timing, write-path counters and
// total energy.
//
// The update stream is phantom (count-accounted, like every paper-scale
// table); the analytic tables must be phantom too.
func RunHTAP(c *cluster.Cluster, cfg pstore.Config, spec HTAPSpec) (HTAPResult, error) {
	spec = spec.withDefaults()
	pl, err := buildHTAPPlant(c, cfg, spec)
	if err != nil {
		return HTAPResult{}, err
	}

	// Analytics driver: sequential Q3 joins; each scan reads the merged
	// views, so every query sees all writes applied before its scans.
	res := HTAPResult{}
	var launchErr error
	c.Eng.Go("htap.driver", func(p *sim.Proc) {
		for q := 0; q < spec.Queries; q++ {
			h, lerr := pl.e.LaunchJoin(fmt.Sprintf("htap.q%d", q), pl.join)
			if lerr != nil {
				launchErr = lerr
				break
			}
			h.Done.Wait(p)
			if h.Err != nil {
				launchErr = h.Err
				break
			}
			res.QuerySeconds = append(res.QuerySeconds, h.Result.Seconds)
		}
		res.Makespan = p.Now()
		pl.stop()
		if launchErr != nil {
			c.Eng.Halt()
		}
	})

	c.Run()
	c.Stop()
	if launchErr != nil {
		return HTAPResult{}, launchErr
	}
	if len(res.QuerySeconds) != spec.Queries {
		return HTAPResult{}, fmt.Errorf("workload: %d of %d htap queries completed (deadlock?)",
			len(res.QuerySeconds), spec.Queries)
	}
	res.Joules = c.TotalJoules()
	res.Txns, res.TxnRows, res.Merges = pl.stats()
	return res, nil
}
