package search

import (
	"runtime"

	"paropt/internal/cost"
	"paropt/internal/optree"
	"paropt/internal/plan"
)

// A search keeps a cover set per relation subset, but its answer is the root
// cover alone: every lower layer is scaffolding that dies when the search
// returns. So promote keeps a candidate — its Candidate, descriptor floats,
// plan node and root operator — in a slab the running search owns, one per
// goroutine slot (slabFor), and finish copies the root members out to the
// heap (copyOut). The slabs are then cleared and kept for the next search
// (idleSlabs), which is what makes a search allocate little more than its
// answer.

// slabChunk is how many candidates, plan nodes or operators one chunk of a
// slab holds (a descriptor chunk holds as many descriptors' floats).
const slabChunk = 256

// slabKeep is how many chunks of each kind a cleared slab keeps for the next
// search; a search that needs more allocates the rest again. A chunk of each
// kind is 166 KB on the serving machine (L = 9: 648 bytes per kept join,
// candidateBytes), so an idle slab holds at most 1.3 MB.
const slabKeep = 8

// slab is where one goroutine slot of a running search keeps what promote
// copies out of the scratch. Chunks are carved in order and never moved or
// grown, so everything a kept candidate points to stays put until the search
// returns.
type slab struct {
	cands  chunks[Candidate]
	floats chunks[float64]
	nodes  chunks[plan.Node]
	ops    chunks[optree.Op]
}

// chunks is a run of fixed-capacity chunks of T: all[n] is being carved, the
// ones before it are full and the ones after it are cleared, kept for reuse.
type chunks[T any] struct {
	all [][]T
	n   int
}

// take carves k zero or copied-over elements; a new chunk holds size of them
// (at least k).
func (c *chunks[T]) take(k, size int) []T {
	if c.n < len(c.all) && len(c.all[c.n])+k > cap(c.all[c.n]) {
		c.n++
	}
	if c.n == len(c.all) {
		c.all = append(c.all, nil)
	}
	if cap(c.all[c.n]) < k {
		c.all[c.n] = make([]T, 0, max(size, k))
	}
	ch := c.all[c.n]
	i := len(ch)
	c.all[c.n] = ch[:i+k]
	return ch[i : i+k : i+k]
}

// one carves one element.
func (c *chunks[T]) one() *T { return &c.take(1, slabChunk)[0] }

// reset clears every carved element, so the slab holds no reference into the
// search that filled it, and keeps at most slabKeep chunks.
func (c *chunks[T]) reset() {
	for i := range c.all[:min(c.n+1, len(c.all))] {
		clear(c.all[i])
		c.all[i] = c.all[i][:0]
	}
	if len(c.all) > slabKeep {
		clear(c.all[slabKeep:])
		c.all = c.all[:slabKeep]
	}
	c.n = 0
}

// desc copies d into the slab.
func (sl *slab) desc(d cost.ResDescriptor) cost.ResDescriptor {
	l := 2 * len(d.First.W)
	return d.CopyTo(sl.floats.take(l, slabChunk*l))
}

// reset readies sl for another search.
func (sl *slab) reset() {
	sl.cands.reset()
	sl.floats.reset()
	sl.nodes.reset()
	sl.ops.reset()
}

// idleSlabs keeps cleared slabs between searches: two per core, so at most
// 2·GOMAXPROCS·1.3 MB.
var idleSlabs = make(idle[slab], 2*runtime.GOMAXPROCS(0))

// slabFor returns the slab of goroutine slot i — 0 the search's owner, i > 0
// the i-th helper of a layer — taking it from idleSlabs on first use. Only
// the owner calls it, between layers.
func (s *Searcher) slabFor(i int) *slab {
	for len(s.slabs) <= i {
		sl := idleSlabs.get()
		if sl == nil {
			sl = new(slab)
		}
		s.slabs = append(s.slabs, sl)
	}
	return s.slabs[i]
}

// retire ends a search: it clears and returns its slabs and its owner's
// worker, so nothing the search kept survives but what finish copied out.
// The Searcher may search again (own).
func (s *Searcher) retire() {
	for _, sl := range s.slabs {
		sl.reset()
		idleSlabs.put(sl)
	}
	clear(s.slabs)
	s.slabs = s.slabs[:0]
	s.worker.release()
	s.worker = nil
}

// own gives s an owner's worker, bound to it, promoting into slab 0.
func (s *Searcher) own() {
	s.worker = takeWorker(s)
	s.slab = s.slabFor(0)
}

// copyOut copies a root member out of the slabs to the heap: its Candidate,
// its descriptor and the join nodes of its plan not copied already (w.copied,
// by pointer, so members that share a subtree share its copy). Leaves are the
// search's own heap nodes and stay shared. A caller that keeps some members
// keeps only the nodes they reach.
func (w *worker) copyOut(c *Candidate) *Candidate {
	return &Candidate{Node: w.copyNode(c.Node), Desc: c.Desc.Clone()}
}

func (w *worker) copyNode(n *plan.Node) *plan.Node {
	if n.IsLeaf() {
		return n
	}
	if m, ok := w.copied[n]; ok {
		return m
	}
	m := new(plan.Node)
	*m = *n
	m.Left, m.Right = w.copyNode(n.Left), w.copyNode(n.Right)
	w.copied[n] = m
	return m
}
