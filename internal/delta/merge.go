package delta

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/storage"
)

// mergeBlockRows frames the rebuilt base during a merge fold. Tail rows
// are re-blocked at this size; filtered base blocks keep their own
// (possibly shrunken) framing. The merged VIEW is framing-independent —
// the determinism tests compare flattened rows.
const mergeBlockRows = 50_000

// NeedsMerge reports whether the merge policy fires: an unmerged tail
// that is either too big (MaxTailRows) or too old (MaxTailAge).
func (s *Store) NeedsMerge(now sim.Time) bool {
	if !s.dirty {
		return false
	}
	return s.liveTailRows() >= s.cfg.MaxTailRows || now-s.oldestAt >= s.cfg.MaxTailAge
}

// Merge folds the overlay into a fresh base, charging the owning node's
// CPU for (base + tail bytes) x mergeWork — the background rewrite that
// contends with concurrent analytics. The new base is built by draining
// a MergedCursor, so the post-merge view is byte-identical to the
// pre-merge merged view by construction.
//
// Returns true when a merge ran. A store with a clean tail, or one
// stopped before the fold begins, returns false; a Stop arriving while
// the CPU booking blocks (the merge's service time) aborts the fold,
// closing the merge cursor so no further blocks are drained.
func (s *Store) Merge(p *sim.Proc) bool {
	if !s.dirty || s.stopped {
		return false
	}
	baseBytes := float64(s.baseRows) * float64(s.def.Width)
	s.cpu.Process(p, (baseBytes+s.TailBytes())*mergeWork)

	cur := s.MergedCursor(mergeBlockRows)
	var newBatches []storage.Batch
	var newRows int64
	for {
		if s.stopped {
			cur.Close()
			return false
		}
		b, ok := cur.Next()
		if !ok {
			break
		}
		newRows += int64(b.Rows)
		if s.baseBatches != nil {
			newBatches = append(newBatches, b)
		}
	}

	s.baseRows = newRows
	if s.baseBatches != nil {
		s.baseBatches = newBatches
		s.tomb = storage.NewInt64Table(0)
		s.tailKeys = nil
		s.tailLive = nil
		s.tailIdx = storage.NewInt64Table(0)
		s.tailDead = 0
	}
	s.tailRows = 0
	s.shadowed = 0
	s.dirty = false
	s.merges++
	return true
}

// StartMerger spawns the periodic merge scheduler on the given engine
// (the owning node's partition): every CheckEvery virtual seconds it
// evaluates the merge policy and runs Merge when it fires. The process
// exits at the first tick after Stop.
func (s *Store) StartMerger(eng *sim.Engine) *sim.Proc {
	name := fmt.Sprintf("delta.merge.%v.n%d", s.def.Table, s.node)
	return sim.Periodic(eng, name, s.cfg.CheckEvery, func(p *sim.Proc) bool {
		if s.stopped {
			return false
		}
		if s.NeedsMerge(p.Now()) {
			s.Merge(p)
		}
		return true
	})
}
