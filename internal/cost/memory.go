package cost

import "paropt/internal/optree"

// Memory is the paper's acknowledged open question (§7): unlike CPU, disks
// and network, memory is NOT preemptable — the stretching property does not
// apply, so it cannot be a coordinate of the resource vector. We model it
// the only sound way for a non-preemptable resource: as a peak-demand
// constraint. The estimate below is compositional over the operator tree's
// execution phases:
//
//   - During an operator's "front" phase its materialized children run
//     (concurrently), each holding its own peak.
//   - During its "run" phase the operator holds its working memory, its
//     materialized children hold their resident outputs (a hash table stays
//     resident for the whole probe), and its pipelined children are still
//     running at their own peaks.
//
// Plans whose peak exceeds the machine's memory are inadmissible; package
// search prunes them when Options.MemoryLimit is set. Pruning on a peak
// constraint is safe in the same way work pruning is: the peak of a plan
// never decreases when the plan is extended (the final phase includes the
// subtree's resident set).

// MemoryEstimate is the peak-demand analysis of one operator tree.
type MemoryEstimate struct {
	// PeakPages is the maximum simultaneous memory demand, in pages.
	PeakPages int64
	// ResidentPages is what remains held while the parent consumes the
	// tree's output (e.g. a hash table during its probe).
	ResidentPages int64
}

// MemoryEstimate computes the peak memory demand of an operator tree under
// the model's page geometry.
func (m *Model) MemoryEstimate(op *optree.Op) MemoryEstimate {
	return m.MemoryAbove(op, nil, MemoryEstimate{})
}

// MemoryAbove is MemoryEstimate with the subtree done taken as estimated
// already: its estimate is doneMem, and nothing below done is read — the
// boundary cost.Model.ExtendCost's descriptor stops at. The estimate of a
// subtree depends only on its own operators, so composing is exact.
func (m *Model) MemoryAbove(op, done *optree.Op, doneMem MemoryEstimate) MemoryEstimate {
	if op == done {
		return doneMem
	}
	var frontSum, pipePeaks, residents int64
	for _, in := range op.EffectiveInputs() {
		child := m.MemoryAbove(in, done, doneMem)
		if in.Composition == optree.Materialized {
			frontSum += child.PeakPages
			residents += child.ResidentPages
		} else {
			pipePeaks += child.PeakPages
			residents += child.ResidentPages
		}
	}
	own := m.workingPages(op)
	runPhase := own + residents + pipePeaks
	peak := frontSum
	if runPhase > peak {
		peak = runPhase
	}
	return MemoryEstimate{
		PeakPages:     peak,
		ResidentPages: m.residentPages(op) + residentsThrough(op, residents),
	}
}

// residentsThrough propagates children's resident sets upward while the
// subtree's output is being consumed: a probe holds its build table, a
// nested loops holds its temporary index.
func residentsThrough(op *optree.Op, childResidents int64) int64 {
	switch op.Kind {
	case optree.Probe, optree.PureNL, optree.Merge:
		// The join holds its auxiliary structures until its last tuple.
		return childResidents
	default:
		// Blocking operators free their children's structures when done.
		return 0
	}
}

// workingPages is the operator's own working-set size while it runs.
func (m *Model) workingPages(op *optree.Op) int64 {
	switch op.Kind {
	case optree.Sort:
		pages := m.Cat.PagesForTuples(op.InCard, op.Width)
		if pages > m.P.SortMemPages {
			return m.P.SortMemPages // external sort runs within its buffer
		}
		return pages
	case optree.Build:
		return m.Cat.PagesForTuples(op.InCard, op.Width)
	case optree.CreateIndex:
		return m.Cat.PagesForTuples(op.InCard, 16)
	default:
		// Pipelined operators need a buffer page per clone.
		return int64(op.Clone.Degree())
	}
}

// residentPages is what the operator keeps allocated for its consumer.
func (m *Model) residentPages(op *optree.Op) int64 {
	switch op.Kind {
	case optree.Build:
		return m.Cat.PagesForTuples(op.InCard, op.Width)
	case optree.CreateIndex:
		return m.Cat.PagesForTuples(op.InCard, 16)
	case optree.Sort:
		// Sorted output streams to the consumer; in-memory sorts keep the
		// run resident until drained.
		pages := m.Cat.PagesForTuples(op.InCard, op.Width)
		if pages > m.P.SortMemPages {
			return 0
		}
		return pages
	default:
		return 0
	}
}
