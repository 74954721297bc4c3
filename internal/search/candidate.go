// Package search implements the paper's §6: the System R dynamic program of
// Figure 1, its partial-order generalization of Figure 2, the bushy-tree
// extensions sketched in §6.4 (and the companion TR [GHK92]), the pruning
// metrics of §6.3 (work, response time, resource vectors, interesting
// orders), cover sets, the work bounds of §2 folded into the search and the
// analytic columns of Table 1. The rows Table 1 compares the DP against —
// brute force, two-phase, the randomized searches — are internal/repro.
package search

import (
	"fmt"
	"runtime"

	"paropt/internal/cost"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// Candidate is a costed plan: an annotated join tree plus its resource
// descriptor under the session's cost model.
type Candidate struct {
	Node *plan.Node
	Desc cost.ResDescriptor
	// op is the root operator of the tree Desc was computed from, deg the
	// tree's total clone degree and mem its memory estimate — what pricing a
	// join over this plan by composition needs (extend), which reads nothing
	// below the left operand's root. Set only inside a running dp: the
	// scratch candidate's op heads its whole tree, a kept one's is a single
	// operator with its inputs cut, and the candidates a search returns
	// carry none.
	op  *optree.Op
	deg int
	mem cost.MemoryEstimate
}

// RT is the response-time estimate (the paper's optimization metric).
func (c *Candidate) RT() float64 { return c.Desc.RT() }

// Work is the total-work estimate (the traditional metric, and the quantity
// the §2 bounds constrain).
func (c *Candidate) Work() float64 { return c.Desc.Work() }

// Order is the plan's physical output ordering.
func (c *Candidate) Order() plan.Ordering { return c.Node.Order }

// String renders "plan  rt=… work=…".
func (c *Candidate) String() string {
	return fmt.Sprintf("%s  rt=%.2f work=%.2f", c.Node, c.RT(), c.Work())
}

// Options configures a search session.
type Options struct {
	// Model is the cost model (carries catalog, query, machine, params).
	Model *cost.Model
	// Expand and Annotate tune operator-tree generation for costing.
	Expand   optree.ExpandOptions
	Annotate optree.AnnotateOptions
	// Metric is the pruning metric: for the Figure 1 algorithms it must be
	// a total order; for the Figure 2 algorithms any partial order.
	// Defaults to WorkMetric for DP* and ResourceVectorMetric for PODP*.
	Metric Metric
	// Final ranks complete plans, and breaks Metric ties in the Figure 1
	// algorithms; defaults to ByRT.
	Final Comparator
	// AvoidCrossProducts skips extensions with no connecting predicate
	// whenever the relation set is connected (the System R heuristic).
	AvoidCrossProducts bool
	// Methods restricts the join methods enumerated; nil means all.
	Methods []plan.JoinMethod
	// WorkLimit, when positive, prunes any (partial or complete) plan whose
	// work exceeds it — the §2 throughput-degradation bound folded into the
	// search, admissible because work only grows under extension.
	WorkLimit float64
	// MemoryLimit, when positive, prunes plans whose peak memory demand (in
	// pages) exceeds it. Memory is non-preemptable (§7), so it is a hard
	// constraint rather than a resource-vector coordinate; pruning is safe
	// because a plan's peak never shrinks under extension.
	MemoryLimit int64
	// CoverCap, when > 0, bounds every cover set to that many plans (beam
	// search): the worst member under Final is evicted when the cover
	// overflows. Exactness is traded for bounded cost — the practical
	// answer to cover explosion at large n.
	CoverCap int
}

// Result is the outcome of one search.
type Result struct {
	// Best is the winning plan under Final (nil when everything was pruned
	// by the work limit).
	Best *Candidate
	// Frontier is the root cover set (partial-order algorithms) or the
	// single best plan (total-order algorithms).
	Frontier []*Candidate
	// Stats are the Table 1 counters.
	Stats Stats
}

// Stats is the one record a search leaves: the quantities Table 1 compares
// across algorithms plus one LayerRecord per DP layer. Every view of a search
// — trace text, profile table, request-trace spans — is a function of it. The four DP algorithms are one driver, so they fill every
// field the same way: a total-order (Figure 1) search is a partial-order
// search whose covers hold one plan.
type Stats struct {
	// PlansConsidered counts joinPlan/accessPlan invocations — the "time
	// complexity (#plans considered)" column of Table 1: one per (subplan,
	// added relation) pair for left-deep algorithms, one per ordered subset
	// split for bushy ones, one per permutation for brute force.
	PlansConsidered int64 `json:"plansConsidered"`
	// PhysicalPlans counts every method × access-path combination costed.
	PhysicalPlans int64 `json:"physicalPlans"`
	// MaxLayerPlans is the peak number of plans stored for subsets of one
	// cardinality — the "space complexity (max #plans stored)" column.
	MaxLayerPlans int64 `json:"maxLayerPlans"`
	// MaxCoverSize is the largest cover set observed (k in §6.2); 1 under a
	// total order.
	MaxCoverSize int `json:"maxCoverSize"`
	// MaxOrderClasses is the largest number of distinct output orderings
	// held in one cover — the measured counterpart of the 2^b "bindings"
	// factor Table 1 assigns to bushy DP (plans kept per physical property
	// of the subquery); 1 under a total order.
	MaxOrderClasses int `json:"maxOrderClasses"`
	// Pruned counts physical candidates (costed method × access-path
	// combinations) rejected by a cover set or a limit.
	Pruned int64 `json:"pruned"`
	// Prune reasons: Pruned split by the test that rejected the candidate —
	// the Theorem 3 cover-set test (PrunedDominance), the §2 work bound
	// (PrunedWork), the memory constraint (PrunedMemory), and beam eviction
	// under CoverCap (PrunedBeam). The four always sum to Pruned.
	PrunedDominance int64 `json:"prunedDominance"`
	PrunedWork      int64 `json:"prunedWork"`
	PrunedMemory    int64 `json:"prunedMemory"`
	PrunedBeam      int64 `json:"prunedBeam"`
	// MetricDims is the dimensionality of the pruning metric actually used
	// by a DP search (1 for total orders). On a multi-node machine this
	// grows with the node count — every interconnect link is a
	// resource-vector coordinate — which is what makes local and
	// repartitioned plans incomparable.
	MetricDims int `json:"metricDims"`
	// Layers holds one telemetry record per DP layer (one pseudo-layer for
	// non-layered strategies) — the raw material of the SearchProfile.
	Layers []LayerRecord `json:"layers"`
	// Baseline is the pseudo-layer of the §2 work-optimal baseline a bounded
	// or cover-set search ran beside or before its layers; its counters are
	// not in the totals above. Nil for a bare search.
	Baseline *LayerRecord `json:"baseline,omitempty"`
}

// Searcher runs the §6 algorithms over one query and cost model. It is the
// search session — options, estimator, query, leaves and, inside dp, the
// solved covers, all read-only while a layer is solved — plus the worker of
// the goroutine that owns the search, whose stats are the search's.
type Searcher struct {
	opt Options
	est *plan.Estimator
	q   *query.Query
	// leaves memoizes the leaf nodes of a relation, so every plan of one
	// split shares one set of them. dp fills every position before layer 2,
	// which is what lets the layer's workers read it unlocked.
	leaves [][]*plan.Node // by query position; nil until first asked for
	// root says dp is solving the full set, whose plans nothing extends.
	root bool
	// counted says the goroutine running this search already holds a
	// search slot (a helper running the §2 baseline), so dp takes none.
	counted bool
	// priced, when set, sees every plan the search prices, still holding the
	// operators it was priced from down to done, and may fail its pricing
	// (the tests' tap); all of it is the pricing worker's scratch, valid only
	// during the call, which comes from whichever goroutine priced the plan.
	priced func(c *Candidate, done *optree.Op) error
	// slabs hold what the search's covers keep, one per goroutine slot
	// (slabFor), until retire clears them.
	slabs []*slab
	*worker
}

// worker is what one goroutine prices in: the cost scratch, the candidate
// last priced and the join nodes it was built from, the pair memo, the cover
// it is filling and its stats. The search's owner and dp's helpers all take
// theirs from idleWorkers; a helper adds its stats to the owner's at the
// layer barrier.
type worker struct {
	s     *Searcher
	stats Stats
	// spanning memoizes the joins of a (left, right) pair of relation sets,
	// so every plan pair of one split shares one predicate slice and one
	// sort-merge order, and a cover set a plan cache retains holds them once
	// per split rather than once per node (EXPERIMENTS §HB1). A pair's key
	// belongs to one subset, so a memo per worker computes each pair once.
	spanning map[[2]query.RelSet]pairJoins
	// scratch holds cand, the plan last priced, and done, the copy of its left
	// operand's root its new operators sit on; joins holds the plan nodes
	// joinNodes built last, one per method, and joined the slice of them it
	// returned. All of it lives until promote copies what a cover admits into
	// slab, the slab of the worker's goroutine slot.
	scratch cost.Scratch
	cand    Candidate
	done    *optree.Op
	joins   []plan.Node
	joined  []*plan.Node
	slab    *slab
	// copied maps the slab nodes finish has copied out to their copies.
	copied map[*plan.Node]*plan.Node
	// cover is the cover of the subset being solved; on the root's pricing
	// helper out takes its place, the chunks the owner inserts.
	cover *CoverSet
	out   *pipe
}

// New builds a Searcher. It panics if the options carry no model, since
// every algorithm needs one; options are programmer input.
func New(opt Options) *Searcher {
	if opt.Model == nil {
		panic("search: Options.Model is required")
	}
	if opt.Final == nil {
		opt.Final = ByRT
	}
	if opt.Methods == nil {
		opt.Methods = plan.AllJoinMethods
	}
	s := &Searcher{opt: opt, est: opt.Model.Est, q: opt.Model.Est.Q}
	s.leaves = make([][]*plan.Node, len(s.q.Relations))
	s.own()
	return s
}

// bind makes w price for s, with no stats and an empty pair memo.
func (w *worker) bind(s *Searcher) {
	w.s, w.stats = s, Stats{}
	if w.spanning == nil {
		w.spanning = make(map[[2]query.RelSet]pairJoins)
		w.copied = make(map[*plan.Node]*plan.Node)
	}
	if n := len(s.opt.Methods); cap(w.joins) < n {
		w.joins, w.joined = make([]plan.Node, n), make([]*plan.Node, 0, n)
	} else {
		w.joins = w.joins[:n]
	}
}

// unbind drops every reference w holds into a search, keeping its buffers.
func (w *worker) unbind() {
	clear(w.spanning)
	clear(w.copied)
	clear(w.joins)
	w.s, w.cand, w.done, w.slab, w.cover, w.out = nil, Candidate{}, nil, nil, nil, nil
}

// idle keeps up to cap(idle) unused objects for reuse. Unlike a sync.Pool it
// survives garbage collections, which a search's allocation rate makes
// frequent: a miss allocates about a megabyte, so a pooled helper's scratch
// or a pipe's chunks would rarely live to their next use.
type idle[T any] chan *T

// get returns an idle object, or nil when there is none.
func (f idle[T]) get() *T {
	select {
	case x := <-f:
		return x
	default:
		return nil
	}
}

// put keeps x for reuse unless enough are kept already.
func (f idle[T]) put(x *T) {
	select {
	case f <- x:
	default:
	}
}

// idleWorkers keeps workers between searches, so a worker's scratch and pair
// memo outlive the search that grew them. A process runs at most GOMAXPROCS
// helpers at once (takeSlots), plus one owner per running search.
var idleWorkers = make(idle[worker], 2*runtime.GOMAXPROCS(0))

// takeWorker returns an idle worker bound to s.
func takeWorker(s *Searcher) *worker {
	w := idleWorkers.get()
	if w == nil {
		w = new(worker)
	}
	w.bind(s)
	return w
}

// release returns a worker for reuse.
func (w *worker) release() {
	w.unbind()
	idleWorkers.put(w)
}

// pairJoins is what every join of one (left, right) pair of relation sets
// shares: the predicates spanning the pair and the order a sort-merge join
// over them delivers.
type pairJoins struct {
	preds      []query.JoinPredicate
	mergeOrder plan.Ordering
}

// pair computes a pair's pairJoins once; its preds are
// Query.JoinsBetween(l, r).
func (w *worker) pair(l, r query.RelSet) pairJoins {
	key := [2]query.RelSet{l, r}
	pj, ok := w.spanning[key]
	if !ok {
		pj.preds = w.s.q.JoinsBetween(l, r)
		pj.mergeOrder = w.s.est.MergeOrder(pj.preds)
		w.spanning[key] = pj
	}
	return pj
}

// nothing is what a leaf is composed over.
var nothing Candidate

// extend is the dynamic program's pricing: plan n, whose left operand is
// left's plan, is priced by composition — left's root operator, descriptor
// and memory estimate are reused as they stand and only the right operand and
// the new root operators are expanded, annotated and costed
// (cost.Model.ExtendCost, cost.Model.MemoryAbove). A leaf composes over
// nothing. The result is w.cand, valid until the next extend (promote keeps
// it); nil when a limit prunes n.
func (w *worker) extend(left *Candidate, n *plan.Node) (*Candidate, error) {
	opt := &w.s.opt
	d, op, done, deg, err := opt.Model.ExtendCost(&w.scratch, n, left.op, left.Desc, left.deg, opt.Expand, opt.Annotate)
	if err != nil {
		return nil, err
	}
	mem := opt.Model.MemoryAbove(op, done, left.mem)
	w.cand, w.done = Candidate{Node: n, Desc: d, op: op, deg: deg, mem: mem}, done
	w.stats.PhysicalPlans++
	if w.s.priced != nil {
		if err := w.s.priced(&w.cand, done); err != nil {
			return nil, err
		}
	}
	if opt.WorkLimit > 0 && d.Work() > opt.WorkLimit {
		w.stats.Pruned++
		w.stats.PrunedWork++
		return nil, nil
	}
	if opt.MemoryLimit > 0 && mem.PeakPages > opt.MemoryLimit {
		w.stats.Pruned++
		w.stats.PrunedMemory++
		return nil, nil
	}
	return &w.cand, nil
}

// promote copies the candidate extend last priced into the worker's slab: its
// descriptor, its plan node (a join's is joinNodes' scratch; a leaf is shared
// already) and, but for a root, which nothing extends, its root operator with
// the inputs cut, its clone degree and its memory estimate. It allocates
// nothing once the slab has grown.
func (w *worker) promote(c *Candidate) *Candidate {
	sl := w.slab
	kept := sl.cands.one()
	*kept = Candidate{Node: c.Node, Desc: sl.desc(c.Desc)}
	if !c.Node.IsLeaf() {
		node := sl.nodes.one()
		*node = *c.Node // what it points to is shared
		kept.Node = node
	}
	if !w.s.root {
		op := sl.ops.one()
		*op = *c.op
		op.Inputs, op.Source = nil, kept.Node
		kept.op, kept.deg, kept.mem = op, c.deg, c.mem
	}
	return kept
}

// joinNodes enumerates every join method over a fixed (left, right) pair of
// subtrees. Sort-merge and hash join require an equijoin predicate; nested
// loops also covers cross products. With right ranging over a relation's
// leafChoices this is the paper's joinPlan(p', R) before its internal "best
// possible way" choice. The nodes are the worker's scratch, rebuilt by the
// next call: a caller that keeps one copies it (promote).
func (w *worker) joinNodes(left, right *plan.Node) ([]*plan.Node, error) {
	pj := w.pair(left.Rels, right.Rels)
	w.joined = w.joined[:0]
	for i, m := range w.s.opt.Methods {
		if len(pj.preds) == 0 && m != plan.NestedLoops {
			continue
		}
		j := &w.joins[i]
		if err := w.s.est.JoinInto(j, left, right, m, pj.preds, pj.mergeOrder); err != nil {
			return nil, err
		}
		w.joined = append(w.joined, j)
	}
	return w.joined, nil
}

// leafChoices returns the raw leaf nodes for a relation (uncosted).
func (s *Searcher) leafChoices(pos int) ([]*plan.Node, error) {
	if out := s.leaves[pos]; out != nil {
		return out, nil
	}
	rel := s.q.Relations[pos]
	var out []*plan.Node
	leaf, err := s.est.Leaf(rel, plan.SeqScan, nil)
	if err != nil {
		return nil, err
	}
	out = append(out, leaf)
	for _, idx := range s.opt.Model.Cat.IndexesOn(rel) {
		l, err := s.est.Leaf(rel, plan.IndexScan, idx)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	s.leaves[pos] = out
	return out, nil
}

// skipSplit applies the cross-product heuristic to joining l with r: when
// their union is connected there is always a predicate-connected way to
// build it, so predicate-less splits are skipped.
func (w *worker) skipSplit(l, r query.RelSet) bool {
	if !w.s.opt.AvoidCrossProducts {
		return false
	}
	if len(w.pair(l, r).preds) > 0 {
		return false
	}
	return w.s.q.Connected(l.Union(r))
}

// bestOf ranks candidates under the Final comparator.
func (s *Searcher) bestOf(cands []*Candidate) *Candidate {
	var best *Candidate
	for _, c := range cands {
		if best == nil || s.opt.Final(c, best) {
			best = c
		}
	}
	return best
}
