package search

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"paropt/internal/plan"
	"paropt/internal/query"
)

// One dynamic program serves Figures 1 and 2 and their bushy variants. It
// has two parameters. The metric decides what a relation subset keeps:
// under a partial order a cover set of incomparable plans (Figure 2), under
// a total order the cover degenerates to the single optimal plan (Figure 1).
// The split enumerator decides which trees are built: left-deep extends the
// plans of S∖{Rj} by Rj, bushy joins the plans of every ordered split of S.

// DPLeftDeep is the System R dynamic program of Figure 1: one optimal plan
// per relation subset under a total-order metric (default: work), built by
// extending the optimal plan of each (i−1)-subset with the missing relation.
// Ties under the metric go to Options.Final.
func (s *Searcher) DPLeftDeep() (*Result, error) { return s.dp(s.totalMetric(), leftDeepSplits) }

// DPBushy extends Figure 1 to bushy trees: every subset's optimal plan is
// the best join over every ordered split (S1, S2) of the subset, which is
// what takes the plan count from O(2^n) to O(3^n) (§6.4, Table 1).
func (s *Searcher) DPBushy() (*Result, error) { return s.dp(s.totalMetric(), bushySplits) }

// PODPLeftDeep is the partial-order dynamic program of Figure 2: instead of
// one optimal plan per relation subset it keeps a cover set of incomparable
// plans under the pruning metric (default: the resource-vector metric of
// §6.3), and extends every plan of every cover set. The final answer is the
// best-cost member of the full set's cover (line 14, bestCost).
func (s *Searcher) PODPLeftDeep() (*Result, error) { return s.dp(s.partialMetric(), leftDeepSplits) }

// PODPBushy is Figure 2 generalized to bushy trees per §6.4: cover sets per
// subset, extended over every ordered split and every pair of cover-set
// members.
func (s *Searcher) PODPBushy() (*Result, error) { return s.dp(s.partialMetric(), bushySplits) }

// totalMetric resolves the Figure 1 metric: the configured total order
// (default work) with its ties sent to Final.
func (s *Searcher) totalMetric() Metric {
	metric := s.opt.Metric
	if metric == nil {
		metric = WorkMetric{}
	}
	return totalOrder{Metric: metric, final: s.opt.Final}
}

// partialMetric resolves the Figure 2 metric. On multi-node machines the
// network links add resource-vector coordinates, which is what makes local
// and repartitioned plans incomparable.
func (s *Searcher) partialMetric() Metric {
	if s.opt.Metric != nil {
		return s.opt.Metric
	}
	return OrderedMetric{Base: ResourceVectorMetric{L: s.opt.Model.Dim()}}
}

// splits enumerates the ways to assemble one relation subset from subsets
// the DP has already solved.
type splits struct {
	// each calls w.join for every (left subplan, right subplan) pair that
	// builds set, charging PlansConsidered by Table 1's accounting for its
	// tree shape, and returns the first error join reports.
	each func(w *worker, set query.RelSet, solved map[query.RelSet]*CoverSet) error
	// allLayers says the splits reach below the previous cardinality layer,
	// so the driver must retain every solved cover, not just the last layer.
	allLayers bool
}

var (
	leftDeepSplits = splits{each: (*worker).extensions}
	bushySplits    = splits{each: (*worker).orderedSplits, allLayers: true}
)

// extensions is the left-deep enumerator: every plan of S∖{Rj} joined with
// every access path of Rj, one plan considered per (subplan, Rj) — the
// paper's joinPlan(p, Rj).
func (w *worker) extensions(set query.RelSet, solved map[query.RelSet]*CoverSet) error {
	var err error
	set.Singletons(func(j int, single query.RelSet) {
		rest := set.Minus(single)
		cover, ok := solved[rest]
		if err != nil || !ok || w.skipSplit(rest, single) {
			return
		}
		for _, p := range cover.Plans() { // line L1
			w.stats.PlansConsidered++ // new := joinPlan(p, Rj) (L2)
			for _, leaf := range w.s.leaves[j] {
				if err = w.join(p, leaf); err != nil {
					return
				}
			}
		}
	})
	return err
}

// orderedSplits is the bushy enumerator: every pair of plans of every
// ordered proper split (S1, S2), one plan considered per pair.
func (w *worker) orderedSplits(set query.RelSet, solved map[query.RelSet]*CoverSet) error {
	var err error
	set.ProperSubsets(func(l, r query.RelSet) {
		cl, okL := solved[l]
		cr, okR := solved[r]
		if err != nil || !okL || !okR || w.skipSplit(l, r) {
			return
		}
		for _, pl := range cl.Plans() {
			for _, pr := range cr.Plans() {
				w.stats.PlansConsidered++
				if err = w.join(pl, pr.Node); err != nil {
					return
				}
			}
		}
	})
	return err
}

// join prices every join method over one (left, right) subplan pair and
// offers the survivors to the cover being solved.
func (w *worker) join(left *Candidate, right *plan.Node) error {
	nodes, err := w.joinNodes(left.Node, right)
	if err != nil {
		return err
	}
	return w.extendInto(w.cover, left, nodes)
}

// dp is the one layer loop: per cardinality layer and per subset it prices
// every join method over the pairs the split enumerator yields and keeps
// the survivors in the subset's cover set (lines L3–L6 of Figure 2). The
// subsets of a layer depend only on the layers below, so the goroutine
// running dp solves them together with the helpers idle cores allow
// (solveLayer); with none it is the serial search. The first costing error,
// in enumeration order, stops the search and is returned. What the covers
// keep lives in the search's slabs, which it clears once finish has copied
// the answer out (retire).
func (s *Searcher) dp(metric Metric, sp splits) (*Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("search: query has no relations")
	}
	if s.worker == nil {
		s.own()
	}
	defer s.retire()
	if !s.counted {
		searching.Add(1)
		defer searching.Add(-1)
	}
	s.stats.MetricDims = metric.Dims()

	mark := s.beginLayer()
	solved := make(map[query.RelSet]*CoverSet, n)
	s.root = n == 1
	for i := 0; i < n; i++ { // every leaf, before layer 2's workers read them
		s.stats.PlansConsidered++ // accessPlans(Ri)
		leaves, err := s.leafChoices(i)
		if err != nil {
			return nil, err
		}
		cs := s.newCover(metric)
		if err := s.extendInto(cs, &nothing, leaves); err != nil {
			return nil, err
		}
		if !cs.Empty() {
			solved[query.NewRelSet(i)] = cs
		}
	}
	s.closeCoverLayer(mark, 1, 1, solved)

	l := &layer{metric: metric, sp: sp}
	for i := 2; i <= n; i++ {
		mark = s.beginLayer()
		s.root = i == n
		l.reset(n, i, solved)
		workers, err := s.solveLayer(l)
		if err != nil {
			return nil, err
		}
		cur := make(map[query.RelSet]*CoverSet, len(l.sets))
		for j, cs := range l.covers {
			if cs != nil {
				cur[l.sets[j]] = cs
			}
		}
		s.closeCoverLayer(mark, i, workers, cur)
		if sp.allLayers {
			for set, cs := range cur {
				solved[set] = cs
			}
		} else {
			solved = cur
		}
	}
	return s.finish(solved[query.FullSet(n)])
}

// layer is one cardinality layer being solved: its subsets in SubsetsOfSize
// order, a cover and an error slot per subset, and the index of the next
// subset to claim. Its workers read the covers solved below and write only
// the slots of the subsets they claim.
type layer struct {
	metric  Metric
	sp      splits
	solved  map[query.RelSet]*CoverSet
	sets    []query.RelSet
	covers  []*CoverSet
	errs    []error
	next    atomic.Int64
	failed  atomic.Bool
	helpers []*worker
	wg      sync.WaitGroup
}

// reset readies l for the subsets of size k of n relations.
func (l *layer) reset(n, k int, solved map[query.RelSet]*CoverSet) {
	l.solved, l.sets = solved, l.sets[:0]
	query.SubsetsOfSize(n, k, func(set query.RelSet) { l.sets = append(l.sets, set) })
	l.covers = slices.Grow(l.covers[:0], len(l.sets))[:len(l.sets)]
	l.errs = slices.Grow(l.errs[:0], len(l.sets))[:len(l.sets)]
	clear(l.covers)
	clear(l.errs)
	l.next.Store(0)
	l.failed.Store(false)
}

// solveLayer solves every subset of l on the calling goroutine and the
// helpers it can take without blocking (takeSlots), returning how many
// goroutines worked on the layer and its first error in enumeration order.
// Covers, their admission order and the counters are the serial search's:
// each subset is solved by one worker exactly as the serial loop solves it,
// and stats are sums and maxima. The root layer is one subset, so its one
// helper prices while the owner inserts (pipeRoot).
func (s *Searcher) solveLayer(l *layer) (int, error) {
	helpers := takeSlots(max(len(l.sets)-1, 1))
	defer releaseSlots(helpers)
	if len(l.sets) == 1 && helpers == 1 {
		return 2, s.pipeRoot(l)
	}
	l.helpers = l.helpers[:0]
	for i := range helpers {
		h := takeWorker(s)
		h.slab = s.slabFor(1 + i)
		l.helpers = append(l.helpers, h)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			h.drain(l)
		}()
	}
	s.drain(l)
	l.wg.Wait()
	for _, h := range l.helpers {
		s.stats.merge(h.stats)
		h.release()
	}
	for _, err := range l.errs {
		if err != nil {
			return 0, err
		}
	}
	return 1 + helpers, nil
}

// drain claims and solves subsets of l until none is left or one failed.
// Claims run in enumeration order, so when subset i fails every subset
// before it is claimed already and its error, if any, still lands.
func (w *worker) drain(l *layer) {
	for !l.failed.Load() {
		i := int(l.next.Add(1) - 1)
		if i >= len(l.sets) {
			return
		}
		w.cover = w.s.newCover(l.metric) // bestPlans := ∅ (line 5)
		if err := l.sp.each(w, l.sets[i], l.solved); err != nil {
			l.errs[i] = err
			l.failed.Store(true)
		} else if !w.cover.Empty() {
			l.covers[i] = w.cover
			w.noteOrderClasses(w.cover)
		}
	}
}

// pipeRoot solves the root layer's one subset on two goroutines: a helper
// enumerates its splits and prices every join into chunks, and the owner
// offers the chunks' candidates to the cover in the order they were priced.
// That is the serial order, so Dominated, Admit and promote see exactly the
// serial sequence; merging covers built from parts of the splits would not
// be exact, since dominance within a tolerance is not transitive.
func (s *Searcher) pipeRoot(l *layer) error {
	h := takeWorker(s)
	p := newPipe()
	h.out = p
	go func() {
		err := l.sp.each(h, l.sets[0], l.solved)
		p.close(err)
	}()
	cs := s.newCover(l.metric)
	for c := range p.full {
		for i := range c.cands {
			s.insert(cs, &c.cands[i])
		}
		c.reset()
		p.free <- c
	}
	s.stats.merge(h.stats)
	h.release()
	err := p.err
	p.release()
	if err != nil {
		return err
	}
	if !cs.Empty() {
		l.covers[0] = cs
		s.noteOrderClasses(cs)
	}
	return nil
}

// searching counts the goroutines of this process doing search work: one
// per running dp, plus the helpers they took. A search takes a helper only
// while the count is below GOMAXPROCS, so with GOMAXPROCS searches running —
// what a service with as many workers as cores does under load — every
// search runs alone on its own goroutine.
var searching atomic.Int64

// takeSlots takes up to want helper slots without blocking and returns how
// many it took.
func takeSlots(want int) int {
	for {
		cur := searching.Load()
		n := min(int64(want), int64(runtime.GOMAXPROCS(0))-cur)
		if n <= 0 {
			return 0
		}
		if searching.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// releaseSlots gives back what takeSlots took.
func releaseSlots(n int) {
	if n > 0 {
		searching.Add(int64(-n))
	}
}

// chunkSize is how many priced candidates the root's pricing helper hands
// the owner at once. Fanning pricing out per extension cost +48 %
// (EXPERIMENTS §SD1); a chunk pays one channel operation per 256 pricings.
const chunkSize = 256

// chunk is a run of priced candidates in enumeration order, each on copies
// of its plan node and descriptor in the chunk's own slab.
type chunk struct {
	cands []Candidate
	sl    slab
}

// add copies c into the chunk and reports whether the chunk is full.
func (ch *chunk) add(c *Candidate) bool {
	node := ch.sl.nodes.one()
	*node = *c.Node
	ch.cands = append(ch.cands, Candidate{Node: node, Desc: ch.sl.desc(c.Desc)})
	return len(ch.cands) == chunkSize
}

// reset empties the chunk, dropping its references into the search.
func (ch *chunk) reset() {
	clear(ch.cands)
	ch.cands = ch.cands[:0]
	ch.sl.reset()
}

// pipeChunks is how many chunks one pipe cycles: one filling, one being
// inserted, one queued between them.
const pipeChunks = 3

// idleChunks keeps the chunks of as many pipes as can run at once: one per
// two goroutines searching.
var idleChunks = make(idle[chunk], pipeChunks*max(1, runtime.GOMAXPROCS(0)/2))

// pipe carries the root layer's priced candidates from its pricing helper to
// the owner: full holds the chunks to insert, in order, free the ones to
// refill. The helper sets err before it closes full.
type pipe struct {
	full, free chan *chunk
	cur        *chunk
	err        error
}

// newPipe builds a pipe.
func newPipe() *pipe {
	p := &pipe{full: make(chan *chunk, pipeChunks), free: make(chan *chunk, pipeChunks)}
	for range pipeChunks {
		ch := idleChunks.get()
		if ch == nil {
			ch = &chunk{cands: make([]Candidate, 0, chunkSize)}
		}
		p.free <- ch
	}
	return p
}

// put hands c to the owner once its chunk is full.
func (p *pipe) put(c *Candidate) {
	if p.cur == nil {
		p.cur = <-p.free
	}
	if p.cur.add(c) {
		p.full <- p.cur
		p.cur = nil
	}
}

// close hands over the last chunk and the pricing's error.
func (p *pipe) close(err error) {
	if p.cur != nil {
		p.full <- p.cur
		p.cur = nil
	}
	p.err = err
	close(p.full)
}

// release keeps the pipe's chunks for reuse once the owner has drained it.
func (p *pipe) release() {
	for range pipeChunks {
		idleChunks.put(<-p.free)
	}
}

// extendInto prices every plan of nodes over left (extend) and offers the
// survivors to cs (insert) — or, on the root's pricing helper, hands them to
// the owner, which inserts them in this order (pipeRoot).
func (w *worker) extendInto(cs *CoverSet, left *Candidate, nodes []*plan.Node) error {
	for _, n := range nodes {
		c, err := w.extend(left, n)
		switch {
		case err != nil:
			return err
		case c == nil:
		case w.out != nil:
			w.out.put(c)
		default:
			w.insert(cs, c)
		}
	}
	return nil
}

// closeCoverLayer records a finished layer: the space statistic (plans
// stored across the layer's covers) plus the layer's telemetry record.
func (s *Searcher) closeCoverLayer(mark layerMark, card, workers int, layer map[query.RelSet]*CoverSet) {
	var kept int64
	maxCover := 0
	for _, cs := range layer {
		kept += int64(cs.Len())
		if cs.Len() > maxCover {
			maxCover = cs.Len()
		}
	}
	if kept > s.stats.MaxLayerPlans {
		s.stats.MaxLayerPlans = kept
	}
	s.endLayer(mark, card, workers, len(layer), kept, maxCover)
}

// newCover builds a cover set honoring the CoverCap option.
func (s *Searcher) newCover(metric Metric) *CoverSet {
	if s.opt.CoverCap > 0 {
		// Evict the worst plan under the final comparator.
		return NewBeamCoverSet(metric, s.opt.CoverCap, func(a, b *Candidate) bool {
			return !s.opt.Final(b, a) // keep a if b is not strictly better
		})
	}
	return NewCoverSet(metric)
}

// insert offers the candidate extend just priced to a cover set, promoting it
// only once no stored plan dominates it, and tracks statistics. A rejected
// candidate is classified by what rejected it: the Theorem 3 dominance test
// or beam eviction (it survived dominance but was the cap's victim).
func (w *worker) insert(cs *CoverSet, c *Candidate) {
	switch {
	case cs.Dominated(c):
		w.stats.Pruned++
		w.stats.PrunedDominance++
	case !cs.Admit(w.promote(c)):
		w.stats.Pruned++
		w.stats.PrunedBeam++
	}
	if cs.Len() > w.stats.MaxCoverSize {
		w.stats.MaxCoverSize = cs.Len()
	}
}

// noteOrderClasses updates the bindings statistic: distinct orderings in a
// finalized cover.
func (w *worker) noteOrderClasses(cs *CoverSet) {
	var classes []plan.Ordering
next:
	for _, c := range cs.Plans() {
		for _, o := range classes {
			if o.Equal(c.Order()) {
				continue next
			}
		}
		classes = append(classes, c.Order())
	}
	if len(classes) > w.stats.MaxOrderClasses {
		w.stats.MaxOrderClasses = len(classes)
	}
}

// finish extracts the result from the full set's cover: each member is copied
// out of the slabs on its own (copyOut), since the slabs are cleared for the
// next search once this one returns. A root is never extended, so its
// candidates were kept without operator trees.
func (s *Searcher) finish(cs *CoverSet) (*Result, error) {
	if cs == nil || cs.Empty() {
		return &Result{Stats: s.stats}, nil
	}
	frontier := make([]*Candidate, cs.Len())
	for i, c := range cs.Plans() {
		frontier[i] = s.copyOut(c)
	}
	best := s.bestOf(frontier)
	return &Result{
		Best:     best,
		Frontier: frontier,
		Stats:    s.stats,
	}, nil
}
