package repro

import (
	"fmt"
	"math"
	"math/rand"

	"paropt/internal/plan"
	"paropt/internal/search"
)

// Randomized search over bushy trees — the §7 outlook made concrete: "even
// for ten relations, [bushy search] increases the size of the search space
// by three orders of magnitude. Consequently use of non-exhaustive search
// algorithms may be imperative." Two classic strategies are provided:
// iterative improvement (greedy descent from random starts) and simulated
// annealing (uphill moves accepted with probability e^{−Δ/T}).

// RandomizedOptions tunes the non-exhaustive search.
type RandomizedOptions struct {
	// Restarts is the number of random starting trees (≥ 1).
	Restarts int
	// Moves is the number of candidate moves evaluated per restart.
	Moves int
	// Anneal switches from iterative improvement to simulated annealing.
	Anneal bool
	// InitTemp and Cooling parameterize the annealing schedule; defaults
	// 0.1×(initial RT) and 0.95.
	InitTemp, Cooling float64
	// Seed makes the search deterministic.
	Seed int64
}

// DefaultRandomizedOptions balances quality and cost for n ≤ 15.
func DefaultRandomizedOptions() RandomizedOptions {
	return RandomizedOptions{Restarts: 8, Moves: 400, Seed: 1}
}

// shape is the mutable tree the move operators act on; leaves carry a
// relation position and an access-path choice, internal nodes a method.
type shape struct {
	leaf        int // relation position, -1 for internal nodes
	access      int // index into the relation's access paths
	method      plan.JoinMethod
	left, right *shape
}

func (sh *shape) isLeaf() bool { return sh.leaf >= 0 }

func (sh *shape) clone() *shape {
	if sh == nil {
		return nil
	}
	return &shape{leaf: sh.leaf, access: sh.access, method: sh.method,
		left: sh.left.clone(), right: sh.right.clone()}
}

// nodes appends all internal nodes; leaves appends all leaves.
func (sh *shape) collect(internal *[]*shape, leaves *[]*shape) {
	if sh.isLeaf() {
		*leaves = append(*leaves, sh)
		return
	}
	*internal = append(*internal, sh)
	sh.left.collect(internal, leaves)
	sh.right.collect(internal, leaves)
}

// Randomized runs the configured non-exhaustive search and returns the best
// plan found. The search space is full bushy trees with every method and
// access-path choice; predicate-less joins are realized as nested loops.
func (s *Searcher) Randomized(opts RandomizedOptions) (*search.Result, error) {
	n := len(s.q.Relations)
	if n == 0 {
		return nil, fmt.Errorf("repro: query has no relations")
	}
	if opts.Restarts < 1 {
		opts.Restarts = 1
	}
	if opts.Moves < 1 {
		opts.Moves = 1
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		opts.Cooling = 0.95
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	leaves := make([][]*plan.Node, n)
	accessCounts := make([]int, n) // per relation position: 1 + indexes
	for i := range leaves {
		var err error
		if leaves[i], err = s.leafChoices(i); err != nil {
			return nil, err
		}
		accessCounts[i] = len(leaves[i])
	}

	start := s.begin()
	var bestEver *search.Candidate
	for r := 0; r < opts.Restarts; r++ {
		cur := randomShape(n, rng, accessCounts)
		curCand, err := s.realize(cur, leaves)
		if err != nil {
			return nil, err
		}
		if curCand == nil {
			continue
		}
		s.stats.PlansConsidered++
		if bestEver == nil || s.opt.Final(curCand, bestEver) {
			bestEver = curCand
		}
		temp := opts.InitTemp
		if temp <= 0 {
			temp = 0.1 * curCand.RT()
		}
		for m := 0; m < opts.Moves; m++ {
			next := cur.clone()
			mutate(next, rng, accessCounts)
			nextCand, err := s.realize(next, leaves)
			if err != nil {
				return nil, err
			}
			if nextCand == nil {
				continue
			}
			s.stats.PlansConsidered++
			accept := s.opt.Final(nextCand, curCand)
			if !accept && opts.Anneal && temp > 0 {
				delta := nextCand.RT() - curCand.RT()
				if rng.Float64() < math.Exp(-delta/temp) {
					accept = true
				}
			}
			if accept {
				cur, curCand = next, nextCand
				if s.opt.Final(curCand, bestEver) {
					bestEver = curCand
				}
			}
			temp *= opts.Cooling
		}
	}
	return s.result(start, bestEver), nil
}

// randomShape builds a random bushy tree over a random permutation.
func randomShape(n int, rng *rand.Rand, accessCounts []int) *shape {
	perm := rng.Perm(n)
	leaves := make([]*shape, n)
	for i, pos := range perm {
		leaves[i] = &shape{leaf: pos, access: rng.Intn(accessCounts[pos]), method: randMethod(rng)}
	}
	for len(leaves) > 1 {
		i := rng.Intn(len(leaves) - 1)
		merged := &shape{leaf: -1, method: randMethod(rng), left: leaves[i], right: leaves[i+1]}
		leaves = append(leaves[:i], append([]*shape{merged}, leaves[i+2:]...)...)
	}
	return leaves[0]
}

func randMethod(rng *rand.Rand) plan.JoinMethod {
	return plan.AllJoinMethods[rng.Intn(len(plan.AllJoinMethods))]
}

// mutate applies one random move in place.
func mutate(sh *shape, rng *rand.Rand, accessCounts []int) {
	var internal, leaves []*shape
	sh.collect(&internal, &leaves)
	switch rng.Intn(5) {
	case 0: // swap two leaves' relations
		if len(leaves) >= 2 {
			a, b := rng.Intn(len(leaves)), rng.Intn(len(leaves))
			leaves[a].leaf, leaves[b].leaf = leaves[b].leaf, leaves[a].leaf
			leaves[a].access = rng.Intn(accessCounts[leaves[a].leaf])
			leaves[b].access = rng.Intn(accessCounts[leaves[b].leaf])
		}
	case 1: // swap children (commutativity)
		if len(internal) > 0 {
			node := internal[rng.Intn(len(internal))]
			node.left, node.right = node.right, node.left
		}
	case 2: // rotate (associativity): ((A B) C) -> (A (B C)) or mirror
		candidates := internal[:0:0]
		for _, nd := range internal {
			if !nd.left.isLeaf() || !nd.right.isLeaf() {
				candidates = append(candidates, nd)
			}
		}
		if len(candidates) > 0 {
			node := candidates[rng.Intn(len(candidates))]
			if !node.left.isLeaf() {
				// ((A B) C) -> (A (B C))
				a, bc := node.left, node.right
				node.left = a.left
				node.right = &shape{leaf: -1, method: a.method, left: a.right, right: bc}
			} else {
				// (A (B C)) -> ((A B) C)
				a, inner := node.left, node.right
				node.left = &shape{leaf: -1, method: inner.method, left: a, right: inner.left}
				node.right = inner.right
			}
		}
	case 3: // change a join method
		if len(internal) > 0 {
			internal[rng.Intn(len(internal))].method = randMethod(rng)
		}
	case 4: // change an access path
		if len(leaves) > 0 {
			l := leaves[rng.Intn(len(leaves))]
			l.access = rng.Intn(accessCounts[l.leaf])
		}
	}
}

// realize builds and prices the plan a shape denotes over the relations'
// leaves (by position, then access path); it returns nil when a limit prunes
// the plan.
func (s *Searcher) realize(sh *shape, leaves [][]*plan.Node) (*search.Candidate, error) {
	node, err := s.realizeNode(sh, leaves)
	if err != nil {
		return nil, err
	}
	return s.price(node, s.opt.Annotate)
}

func (s *Searcher) realizeNode(sh *shape, leaves [][]*plan.Node) (*plan.Node, error) {
	if sh.isLeaf() {
		return leaves[sh.leaf][sh.access], nil
	}
	left, err := s.realizeNode(sh.left, leaves)
	if err != nil {
		return nil, err
	}
	right, err := s.realizeNode(sh.right, leaves)
	if err != nil {
		return nil, err
	}
	method := sh.method
	if len(s.q.JoinsBetween(left.Rels, right.Rels)) == 0 {
		method = plan.NestedLoops // predicate-less joins only as nested loops
	}
	return s.est.Join(left, right, method)
}
