package pstore

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// AggSpec describes a scan-filter-aggregate query (the TPC-H Q1 shape:
// no join, no repartitioning — only a tiny partial-aggregate transfer to
// a coordinator). It is the paper's exemplar of a perfectly partitionable
// workload with ideal speedup (Figure 2(a)).
type AggSpec struct {
	Table storage.TableDef
	Sel   float64
	// AggWork is extra CPU bytes charged per qualified byte for the
	// aggregation itself (default 1.0).
	AggWork float64
	// Coordinator is the node receiving partial aggregates (default 0).
	Coordinator int
}

// Validate sanity-checks the spec against a cluster.
func (s AggSpec) Validate(c *cluster.Cluster) error {
	switch {
	case !(s.Sel > 0 && s.Sel <= 1): // rejects NaN
		return fmt.Errorf("pstore: selectivity must be in (0,1], got %v", s.Sel)
	case s.Coordinator < 0 || s.Coordinator >= len(c.Nodes):
		return fmt.Errorf("pstore: coordinator %d out of range", s.Coordinator)
	case !(s.AggWork >= 0 && s.AggWork <= math.MaxFloat64): // rejects NaN and +Inf
		return fmt.Errorf("pstore: aggregate work must be finite and >= 0, got %v", s.AggWork)
	}
	return nil
}

// AggResult reports one executed aggregation query.
type AggResult struct {
	Seconds       float64
	QualifiedRows int64
	// Sum is a real aggregate (sum of the key column) for materialized
	// runs, verified against a serial reference.
	Sum uint64
}

// RunAggregate executes the aggregation query on the cluster and returns
// the result plus total cluster energy.
func RunAggregate(c *cluster.Cluster, cfg Config, spec AggSpec) (AggResult, float64, error) {
	if err := cfg.Validate(); err != nil {
		return AggResult{}, 0, err
	}
	if err := spec.Validate(c); err != nil {
		return AggResult{}, 0, err
	}
	e := New(c, cfg)
	if spec.AggWork == 0 {
		spec.AggWork = 1.0
	}
	n := len(c.Nodes)
	parts, err := storage.PartitionColumns(spec.Table, n, e.cfg.BatchRows, loadCols(spec.Table, keyCols))
	if err != nil {
		return AggResult{}, 0, err
	}

	var res AggResult
	mb := cluster.NewMailbox("agg.final", n, e.cfg.MailboxCap)
	done := &sim.Event{}

	for nd := 0; nd < n; nd++ {
		nd := nd
		node := c.Nodes[nd]
		part := parts[nd]
		c.Eng.Go(fmt.Sprintf("agg.scan.%d", nd), func(p *sim.Proc) {
			var rows int64
			var sum uint64
			// Fold the aggregate over the scan cursor: each pulled batch is
			// already filtered, so the loop only charges the agg work and
			// accumulates — no intermediate batch list.
			src := e.scan(p, node, part, spec.Sel, keyCols)
			defer src.Close()
			for {
				out, ok := src.Next()
				if !ok {
					break
				}
				node.CPU.Process(p, out.Bytes()*spec.AggWork)
				rows += int64(out.Rows)
				if !out.Phantom() {
					for _, k := range out.Cols[storage.ColKey] {
						sum += uint64(k)
					}
				}
			}
			// Ship the partial aggregate: one tiny tuple (32 bytes).
			agg := storage.Batch{Rows: 1, Width: 32,
				Cols: []storage.Int64Column{{int64(rows)}, {int64(sum)}}}
			c.Send(p, cluster.Message{From: nd, To: spec.Coordinator, Batch: agg, Dest: mb})
			c.Send(p, cluster.Message{From: nd, To: spec.Coordinator, EOS: true, Dest: mb})
		})
	}

	c.Eng.Go("agg.coord", func(p *sim.Proc) {
		for {
			b, ok := mb.Recv(p)
			if !ok {
				break
			}
			res.QualifiedRows += b.Cols[0][0]
			res.Sum += uint64(b.Cols[1][0])
		}
		res.Seconds = p.Now()
		done.Fire()
	})

	c.Run()
	c.Stop()
	if !done.Fired() {
		return AggResult{}, 0, fmt.Errorf("pstore: aggregate did not complete")
	}
	return res, c.TotalJoules(), nil
}
