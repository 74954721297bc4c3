package search

import (
	"fmt"
	"strings"
	"time"
	"unsafe"

	"paropt/internal/optree"
	"paropt/internal/plan"
)

// Per-layer search telemetry: the lattice of a dynamic program is layered by
// subset cardinality, and where the time and the cover growth are decides
// what parallelism buys. Every search records one LayerRecord per layer —
// start and wall time, the goroutines that solved it, subsets expanded, join
// pairs considered, candidates kept, and prunes split by the test that
// rejected them — aggregated into a SearchProfile on the result's Stats.
//
// The parallelism dp has is per-subset sharding: the subsets of one layer
// read only covers below it, so each is solved whole by one worker and its
// cover needs no merge at the barrier. The root layer is one subset; a
// helper prices its joins while the owner inserts them in the serial order
// (driver.go). Covers, counters and records other than times and Workers
// are the serial search's.
//
// Collection is deliberately cheap: counters are snapshotted at layer
// boundaries (two time.Now calls and a handful of integer deltas per layer),
// never per subset, so the untraced hot path stays allocation-free.

// LayerRecord is the telemetry of one DP layer (all subsets of one
// cardinality). A search that is not layered — the §2 baseline beside a
// cover-set search, the oracles of internal/repro — records its whole run as
// a single pseudo-layer so totals stay comparable across algorithms.
type LayerRecord struct {
	// Card is the subset cardinality this layer solved (the relation count
	// for pseudo-layers).
	Card int `json:"card"`
	// Subsets is the number of subsets with a surviving (non-empty) cover.
	Subsets int `json:"subsets"`
	// Considered counts joinPlan/accessPlan invocations in this layer — the
	// join pairs (cover member × extension) the layer expanded.
	Considered int64 `json:"considered"`
	// Physical counts method × access-path combinations costed.
	Physical int64 `json:"physical"`
	// Kept is the total plans stored across this layer's covers — the
	// layer's frontier size.
	Kept int64 `json:"kept"`
	// Prunes by reason: the Theorem 3 cover-set test (dominance), the §2
	// work bound, the memory constraint, and beam (CoverCap) eviction.
	PrunedDominance int64 `json:"prunedDominance"`
	PrunedWork      int64 `json:"prunedWork"`
	PrunedMemory    int64 `json:"prunedMemory"`
	PrunedBeam      int64 `json:"prunedBeam"`
	// MaxCover is the largest single cover set in the layer (k in §6.2).
	MaxCover int `json:"maxCover"`
	// BytesRetained estimates the memory held by the layer's stored
	// candidates: what promote took from the search's slabs for them
	// (candidateBytes — the Candidate, its descriptor floats, its plan node
	// and its one operator). A pseudo-layer keeps no cover and records none.
	BytesRetained int64 `json:"bytesRetained"`
	// Workers is how many goroutines solved the layer: the search's own plus
	// the helpers idle cores gave it (the root's pricing helper included).
	Workers int `json:"workers"`
	// Start is when the layer began; WallNanos its wall-clock time.
	Start     time.Time `json:"-"`
	WallNanos int64     `json:"wallNanos"`
}

// Pruned is the layer's total prune count across all reasons.
func (r LayerRecord) Pruned() int64 {
	return r.PrunedDominance + r.PrunedWork + r.PrunedMemory + r.PrunedBeam
}

// SearchProfile aggregates the per-layer records of one search — the
// white-box view attached to every optimize result.
type SearchProfile struct {
	// Relations is the query size (the deepest layer's cardinality).
	Relations int `json:"relations"`
	// WallNanos is the summed layer wall time.
	WallNanos int64 `json:"wallNanos"`
	// PeakBytesRetained is the largest per-layer retained-bytes estimate.
	PeakBytesRetained int64 `json:"peakBytesRetained"`
	// Layers are the per-layer records in cardinality order.
	Layers []LayerRecord `json:"layers,omitempty"`
}

// Profile aggregates the collected layer records. It is cheap (no search
// state needed) and safe on a zero-value Stats.
func (st Stats) Profile() SearchProfile {
	p := SearchProfile{Layers: st.Layers}
	for _, l := range st.Layers {
		if l.Card > p.Relations {
			p.Relations = l.Card
		}
		p.WallNanos += l.WallNanos
		if l.BytesRetained > p.PeakBytesRetained {
			p.PeakBytesRetained = l.BytesRetained
		}
	}
	return p
}

// Table renders the profile as a fixed-width text table (one row per layer).
func (p SearchProfile) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %8s %11s %9s %7s %8s %7s %7s %7s %9s %7s %10s\n",
		"layer", "subsets", "considered", "physical", "kept",
		"prDom", "prWork", "prMem", "prBeam", "maxCover", "workers", "wall")
	for _, l := range p.Layers {
		fmt.Fprintf(&b, "%5d %8d %11d %9d %7d %8d %7d %7d %7d %9d %7d %10s\n",
			l.Card, l.Subsets, l.Considered, l.Physical, l.Kept,
			l.PrunedDominance, l.PrunedWork, l.PrunedMemory, l.PrunedBeam,
			l.MaxCover, l.Workers, time.Duration(l.WallNanos).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "total: %d relations, wall %s, peak retained ≈ %d bytes\n",
		p.Relations, time.Duration(p.WallNanos).Round(time.Microsecond), p.PeakBytesRetained)
	return b.String()
}

// TraceText renders the record as the search trace: one line per layer, then
// the winning plan (or the no-plan marker when best is nil) and the totals.
func (st Stats) TraceText(best *Candidate) string {
	var b strings.Builder
	for _, l := range st.Layers {
		fmt.Fprintf(&b, "layer %d: %d subsets, %d plans stored, pruned %d (dom %d, work %d, mem %d, beam %d), %.3fms\n",
			l.Card, l.Subsets, l.Kept, l.Pruned(),
			l.PrunedDominance, l.PrunedWork, l.PrunedMemory, l.PrunedBeam,
			float64(l.WallNanos)/1e6)
	}
	if best == nil {
		b.WriteString("no plan (all pruned)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "best: %s\nconsidered=%d physical=%d maxCover=%d pruned=%d\n",
		best, st.PlansConsidered, st.PhysicalPlans, st.MaxCoverSize, st.Pruned)
	return b.String()
}

// layerMark snapshots the prune/consider counters at a layer boundary so the
// layer's record can be computed as deltas when it closes.
type layerMark struct {
	start      time.Time
	considered int64
	physical   int64
	prunedDom  int64
	prunedWork int64
	prunedMem  int64
	prunedBeam int64
}

// beginLayer opens a layer: one clock read plus six integer copies.
func (s *Searcher) beginLayer() layerMark {
	return layerMark{
		start:      time.Now(),
		considered: s.stats.PlansConsidered,
		physical:   s.stats.PhysicalPlans,
		prunedDom:  s.stats.PrunedDominance,
		prunedWork: s.stats.PrunedWork,
		prunedMem:  s.stats.PrunedMemory,
		prunedBeam: s.stats.PrunedBeam,
	}
}

// endLayer closes a layer: it appends the record to the stats.
func (s *Searcher) endLayer(m layerMark, card, workers, subsets int, kept int64, maxCover int) {
	rec := LayerRecord{
		Card:            card,
		Subsets:         subsets,
		Considered:      s.stats.PlansConsidered - m.considered,
		Physical:        s.stats.PhysicalPlans - m.physical,
		Kept:            kept,
		PrunedDominance: s.stats.PrunedDominance - m.prunedDom,
		PrunedWork:      s.stats.PrunedWork - m.prunedWork,
		PrunedMemory:    s.stats.PrunedMemory - m.prunedMem,
		PrunedBeam:      s.stats.PrunedBeam - m.prunedBeam,
		MaxCover:        maxCover,
		BytesRetained:   kept * s.candidateBytes(card),
		Workers:         workers,
		Start:           m.start,
		WallNanos:       time.Since(m.start).Nanoseconds(),
	}
	s.stats.Layers = append(s.stats.Layers, rec)
}

// merge adds a helper's counters to the search's: sums, and maxima for the
// largest cover and order-class count it saw.
func (st *Stats) merge(h Stats) {
	st.PlansConsidered += h.PlansConsidered
	st.PhysicalPlans += h.PhysicalPlans
	st.Pruned += h.Pruned
	st.PrunedDominance += h.PrunedDominance
	st.PrunedWork += h.PrunedWork
	st.PrunedMemory += h.PrunedMemory
	st.PrunedBeam += h.PrunedBeam
	st.MaxCoverSize = max(st.MaxCoverSize, h.MaxCoverSize)
	st.MaxOrderClasses = max(st.MaxOrderClasses, h.MaxOrderClasses)
}

// candidateBytes is what promote takes from its slab for one candidate a
// cover of card relations keeps: the Candidate (its memory estimate inline),
// its descriptor's 2L floats, a join's plan node (a leaf's is shared) and,
// but for a root, which nothing extends, its one operator. Clone sets,
// predicates, orders and the operands' nodes are shared across extensions
// and not charged per candidate.
func (s *Searcher) candidateBytes(card int) int64 {
	b := int64(unsafe.Sizeof(Candidate{})) + 2*8*int64(s.opt.Model.Dim())
	if card > 1 {
		b += int64(unsafe.Sizeof(plan.Node{}))
	}
	if !s.root {
		b += int64(unsafe.Sizeof(optree.Op{}))
	}
	return b
}
