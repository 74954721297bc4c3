// Package search implements the paper's §6: the System R dynamic program of
// Figure 1, its partial-order generalization of Figure 2, the bushy-tree
// extensions sketched in §6.4 (and the companion TR [GHK92]), brute-force
// enumerators for both shapes, the pruning metrics of §6.3 (work, response
// time, resource vectors, interesting orders), cover sets with the Theorem 3
// size experiment, and the work bounds of §2 folded into the search.
package search

import (
	"fmt"

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
	// ExhaustivePhysical makes the brute-force enumerators enumerate every
	// method/access combination rather than choosing greedily per step;
	// exact but exponentially more expensive, meant for small n.
	ExhaustivePhysical bool
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
}

// Searcher runs the §6 algorithms over one query and cost model.
type Searcher struct {
	opt   Options
	est   *plan.Estimator
	q     *query.Query
	stats Stats
	// spanning and leaves memoize what is a function of relation sets alone:
	// the joins of a (left, right) pair and the leaf nodes of a relation.
	// Every plan pair of one split then shares one predicate slice, one
	// sort-merge order and one set of leaves, so a cover set a plan cache
	// retains holds them once per split rather than once per node
	// (EXPERIMENTS §HB1).
	spanning map[[2]query.RelSet]pairJoins
	leaves   [][]*plan.Node // by query position; nil until first asked for
	// scratch holds cand, the plan last priced, and done, the copy of its left
	// operand's root its new operators sit on; joins holds the plan nodes
	// joinNodes built last, one per method, and joined the slice of them it
	// returned. All of it lives until promote copies out what a cover admits.
	// root says dp is solving the full set, whose plans nothing extends.
	scratch cost.Scratch
	cand    Candidate
	done    *optree.Op
	joins   []plan.Node
	joined  []*plan.Node
	root    bool
	// priced, when set, sees every plan the search prices, still holding the
	// operators it was priced from down to done (the differential test's
	// tap); all of it is the scratch's, valid only during the call.
	priced func(*Candidate)
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
	q := opt.Model.Est.Q
	return &Searcher{
		opt: opt, est: opt.Model.Est, q: q,
		spanning: make(map[[2]query.RelSet]pairJoins),
		leaves:   make([][]*plan.Node, len(q.Relations)),
		joins:    make([]plan.Node, len(opt.Methods)),
		joined:   make([]*plan.Node, 0, len(opt.Methods)),
	}
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
func (s *Searcher) pair(l, r query.RelSet) pairJoins {
	key := [2]query.RelSet{l, r}
	pj, ok := s.spanning[key]
	if !ok {
		pj.preds = s.q.JoinsBetween(l, r)
		pj.mergeOrder = s.est.MergeOrder(pj.preds)
		s.spanning[key] = pj
	}
	return pj
}

// nothing is what a leaf, or a whole tree, is composed over.
var nothing Candidate

// cost prices a whole plan tree — a composition over nothing — into a
// candidate that keeps no operator tree, or nil when a limit prunes it: the
// pricing of the oracles (brute force, randomized, two-phase).
func (s *Searcher) cost(n *plan.Node) (*Candidate, error) {
	c, err := s.extend(&nothing, n)
	if c == nil {
		return nil, err
	}
	return &Candidate{Node: n, Desc: c.Desc.Clone()}, nil
}

// extend is the dynamic program's pricing: plan n, whose left operand is
// left's plan, is priced by composition — left's root operator, descriptor
// and memory estimate are reused as they stand and only the right operand and
// the new root operators are expanded, annotated and costed
// (cost.Model.ExtendCost, cost.Model.MemoryAbove). A leaf composes over
// nothing. The result is s.cand, valid until the next extend (promote keeps
// it); nil when a limit prunes n.
func (s *Searcher) extend(left *Candidate, n *plan.Node) (*Candidate, error) {
	m := s.opt.Model
	d, op, done, deg, err := m.ExtendCost(&s.scratch, n, left.op, left.Desc, left.deg, s.opt.Expand, s.opt.Annotate)
	if err != nil {
		return nil, err
	}
	mem := m.MemoryAbove(op, done, left.mem)
	s.cand, s.done = Candidate{Node: n, Desc: d, op: op, deg: deg, mem: mem}, done
	s.stats.PhysicalPlans++
	if s.priced != nil {
		s.priced(&s.cand)
	}
	if s.opt.WorkLimit > 0 && d.Work() > s.opt.WorkLimit {
		s.stats.Pruned++
		s.stats.PrunedWork++
		return nil, nil
	}
	if s.opt.MemoryLimit > 0 && mem.PeakPages > s.opt.MemoryLimit {
		s.stats.Pruned++
		s.stats.PrunedMemory++
		return nil, nil
	}
	return &s.cand, nil
}

// promote copies the candidate extend last priced to the heap: its descriptor,
// its plan node (a join's is joinNodes' scratch; a leaf is shared already)
// and, but for a root, which nothing extends, its root operator with the
// inputs cut, its clone degree and its memory estimate.
func (s *Searcher) promote(c *Candidate) *Candidate {
	kept := &Candidate{Node: c.Node, Desc: c.Desc.Clone()}
	if !c.Node.IsLeaf() {
		kept.Node = heapNode(c.Node)
	}
	if !s.root {
		op := new(optree.Op)
		*op = *c.op
		op.Inputs, op.Source = nil, kept.Node
		kept.op, kept.deg, kept.mem = op, c.deg, c.mem
	}
	return kept
}

// heapNode copies a plan node to the heap; what it points to is shared.
func heapNode(n *plan.Node) *plan.Node {
	cp := new(plan.Node)
	*cp = *n
	return cp
}

// costAll prices plan trees in order, dropping the ones cost prunes.
func (s *Searcher) costAll(nodes []*plan.Node) ([]*Candidate, error) {
	out := make([]*Candidate, 0, len(nodes))
	for _, n := range nodes {
		c, err := s.cost(n)
		if err != nil {
			return nil, err
		}
		if c != nil {
			out = append(out, c)
		}
	}
	return out, nil
}

// accessCandidates prices every access path for the relation at the given
// query position: the sequential scan plus one candidate per index.
func (s *Searcher) accessCandidates(pos int) ([]*Candidate, error) {
	leaves, err := s.leafChoices(pos)
	if err != nil {
		return nil, err
	}
	return s.costAll(leaves)
}

// joinNodes enumerates every join method over a fixed (left, right) pair of
// subtrees. Sort-merge and hash join require an equijoin predicate; nested
// loops also covers cross products. With right ranging over a relation's
// leafChoices this is the paper's joinPlan(p', R) before its internal "best
// possible way" choice. The nodes are the Searcher's scratch, rebuilt by the
// next call: a caller that keeps one copies it (promote, joinCandidates).
func (s *Searcher) joinNodes(left, right *plan.Node) ([]*plan.Node, error) {
	pj := s.pair(left.Rels, right.Rels)
	s.joined = s.joined[:0]
	for i, m := range s.opt.Methods {
		if len(pj.preds) == 0 && m != plan.NestedLoops {
			continue
		}
		j := &s.joins[i]
		if err := s.est.JoinInto(j, left, right, m, pj.preds, pj.mergeOrder); err != nil {
			return nil, err
		}
		s.joined = append(s.joined, j)
	}
	return s.joined, nil
}

// joinCandidates prices joinNodes tree by tree, returning the survivors, each
// on its own heap copy of its plan node.
func (s *Searcher) joinCandidates(left, right *plan.Node) ([]*Candidate, error) {
	nodes, err := s.joinNodes(left, right)
	if err != nil {
		return nil, err
	}
	cands, err := s.costAll(nodes)
	for _, c := range cands {
		c.Node = heapNode(c.Node)
	}
	return cands, err
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
func (s *Searcher) skipSplit(l, r query.RelSet) bool {
	if !s.opt.AvoidCrossProducts {
		return false
	}
	if len(s.pair(l, r).preds) > 0 {
		return false
	}
	return s.q.Connected(l.Union(r))
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

// Stats returns the counters accumulated so far.
func (s *Searcher) Stats() Stats { return s.stats }
