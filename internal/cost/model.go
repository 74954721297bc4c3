package cost

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"paropt/internal/catalog"
	"paropt/internal/machine"
	"paropt/internal/optree"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// Model evaluates resource descriptors for operator trees on a specific
// machine, using catalog statistics and the Params work model. It is the
// concrete realization of §5: base descriptors per atomic operator, composed
// recursively with Pipe/TreeDesc, with materialized edges sync'd,
// redistribution edges charged to the network, and cloning spreading CPU
// work across clone resources (the stretching property makes the division
// legitimate).
type Model struct {
	Cat *catalog.Catalog
	M   *machine.Machine
	Est *plan.Estimator
	P   Params
	// Placed maps relation name → its data placement. When a placed base
	// relation's scan is redistributed on its own placement column, the
	// partitions are already where the consumer wants them and the exchange
	// is free; when it is repartitioned on any other attribute, the transfer
	// is charged from the placement's real nodes. Nil means no placement
	// (all data at the coordinator / shared-memory).
	Placed map[string]PlacedRelation
}

// PlacedRelation is one data-placement entry: the relation is hash-
// partitioned on Column across the shared-nothing Nodes, in shard order.
type PlacedRelation struct {
	Column string
	Nodes  []int
}

// NewModel assembles a cost model.
func NewModel(cat *catalog.Catalog, m *machine.Machine, est *plan.Estimator, p Params) *Model {
	return &Model{Cat: cat, M: m, Est: est, P: p}
}

// Dim is the resource-vector dimensionality (the paper's l).
func (m *Model) Dim() int { return m.M.NumResources() }

// Scratch is the working memory of pricing: one plan's vectors and operators
// are carved from it and recycled by the next, so pricing allocates nothing
// once it has grown. It belongs to one goroutine and its owner (a search),
// never a Model, which concurrent requests share; nil allocates on the heap.
type Scratch struct {
	buf  []float64
	used int
	ops  optree.Arena
}

// vec carves a zero vector of dimension l from s. A full chunk is replaced,
// not grown, so the vectors carved from it stay valid.
func (s *Scratch) vec(l int) Vec {
	if s == nil {
		return NewVec(l)
	}
	if s.used+l > len(s.buf) {
		s.buf, s.used = make([]float64, max(2*len(s.buf), 16*l)), 0
	}
	v := Vec(s.buf[s.used : s.used+l : s.used+l])
	s.used += l
	clear(v)
	return v
}

// Descriptor computes the resource descriptor of a whole operator tree,
// recursively: children first (sync'd if their edge is materialized, with a
// redistribution transfer piped in when flagged), then composed with the
// node's own base descriptor via Pipe (one input) or TreeDesc (two inputs).
func (m *Model) Descriptor(op *optree.Op) ResDescriptor {
	return m.descriptor(nil, op, nil, ResDescriptor{})
}

// descriptor is Descriptor in s with the subtree done taken as costed
// already: its descriptor is doneDesc, not recomputed.
func (m *Model) descriptor(s *Scratch, op, done *optree.Op, doneDesc ResDescriptor) ResDescriptor {
	if op == done {
		return doneDesc
	}
	// EffectiveInputs drops a nested-loops inner that is a base access: it
	// is probed (or rescanned) per outer tuple, and that cost is entirely
	// in the PureNL base formula. Charging the inner's standalone scan as
	// well would double-count (in Example 3 the join's usage is exactly the
	// probe I/O, not probe + one full index scan).
	inputs := op.EffectiveInputs()
	var children [2]ResDescriptor
	for i, in := range inputs {
		d := m.descriptor(s, in, done, doneDesc)
		if in.Redistribute {
			d = d.pipe(s, m.redistribution(s, in), m.P.PipelineK)
		}
		if in.Composition == optree.Materialized {
			d = d.Sync()
		}
		children[i] = d
	}
	base := m.base(s, op)
	switch len(inputs) {
	case 0:
		return base
	case 1:
		return children[0].pipe(s, base, m.P.PipelineK)
	default:
		return treeDesc(s, children[0], children[1], base, m.P.PipelineK)
	}
}

// RT is the response-time estimate of an operator tree.
func (m *Model) RT(op *optree.Op) Time { return m.Descriptor(op).RT() }

// Work is the total-work estimate of an operator tree — the traditional
// throughput-oriented metric of §3.
func (m *Model) Work(op *optree.Op) float64 { return m.Descriptor(op).Work() }

// demand accumulates per-resource work for one operator.
type demand struct {
	m *Model
	w Vec
}

func (m *Model) newDemand(s *Scratch) demand { return demand{m: m, w: s.vec(m.Dim())} }

// addAt charges work to one resource, normalized by its speed.
func (d *demand) addAt(id machine.ResourceID, work float64) {
	if work <= 0 {
		return
	}
	d.w[int(id)] += work / d.m.M.Resource(id).Speed
}

// addHeapIO charges heap I/O for a relation, spread across its declustered
// fragments (Gamma-style hash partitioning over consecutive disks) or all
// on the home disk when not declustered.
func (d *demand) addHeapIO(rel *catalog.Relation, work float64) {
	frags := rel.Decluster
	if frags < 2 {
		d.addAt(d.m.M.DiskFor(rel.Disk), work)
		return
	}
	if n := len(d.m.M.Disks()); frags > n {
		frags = n
	}
	share := work / float64(frags)
	for i := 0; i < frags; i++ {
		d.addAt(d.m.M.DiskFor(rel.Disk+i), share)
	}
}

// addCPU spreads CPU work across the clone set, inflating it by the cloning
// overhead first.
func (d *demand) addCPU(work float64, clone optree.Cloning) {
	if work <= 0 {
		return
	}
	deg := clone.Degree()
	work *= 1 + d.m.P.CloneOverhead*float64(deg-1)
	if len(clone.Resources) == 0 {
		d.addAt(d.m.M.CPUFor(0), work)
		return
	}
	share := work / float64(deg)
	for _, r := range clone.Resources {
		d.addAt(r, share)
	}
}

// base computes the operator's own resource descriptor: work placed on the
// resources it uses, response time the busiest resource's work (CPU and I/O
// overlap within an operator), first-tuple usage zero for pipelined
// operators and full for blocking ones (sort, build, create-index emit
// nothing until done).
func (m *Model) base(s *Scratch, op *optree.Op) ResDescriptor {
	d := m.newDemand(s)
	p := m.P
	switch op.Kind {
	case optree.Scan:
		rel := m.Cat.MustRelation(op.Relation)
		d.addHeapIO(rel, float64(rel.Pages)*p.IOPage)
		d.addCPU(float64(rel.Card)*p.CPUTuple, op.Clone)

	case optree.IndexScanOp:
		rel := m.Cat.MustRelation(op.Relation)
		idx := op.Index
		frac := 1.0
		if rel.Card > 0 {
			frac = float64(op.OutCard) / float64(rel.Card)
			if frac > 1 {
				frac = 1
			}
		}
		d.addAt(m.M.DiskFor(idx.Disk), math.Ceil(float64(idx.Pages)*frac)*p.IOPage)
		switch {
		case idx.Covering:
			// Index-only scan: no heap access.
		case idx.Clustered:
			d.addHeapIO(rel, math.Ceil(float64(rel.Pages)*frac)*p.IOPage)
		default:
			d.addHeapIO(rel, float64(op.OutCard)*p.IOPage)
		}
		d.addCPU(float64(op.OutCard)*p.CPUTuple, op.Clone)

	case optree.Sort:
		n := float64(op.InCard)
		d.addCPU(n*log2(n)*p.CPUCompare, op.Clone)
		pages := m.Cat.PagesForTuples(op.InCard, op.Width)
		if pages > p.SortMemPages {
			// Two-pass external sort: write and re-read every page.
			d.addAt(m.spillDisk(op), 2*float64(pages)*p.IOPage)
		}

	case optree.Merge:
		l, r := op.InCard, rightCard(op)
		d.addCPU(float64(l+r)*p.CPUCompare+float64(op.OutCard)*p.CPUTuple, op.Clone)

	case optree.Build:
		d.addCPU(float64(op.InCard)*p.HashBuild, op.Clone)

	case optree.Probe:
		d.addCPU(float64(op.InCard)*p.HashProbe+float64(op.OutCard)*p.CPUTuple, op.Clone)

	case optree.PureNL:
		outer := float64(op.InCard)
		inner := op.Inputs[1]
		switch inner.Kind {
		case optree.IndexScanOp:
			d.addCPU(outer*p.IndexProbeCPU+float64(op.OutCard)*p.CPUTuple, op.Clone)
			d.addAt(m.M.DiskFor(inner.Index.Disk), outer*p.IndexProbeIO*p.IOPage)
		case optree.CreateIndex:
			d.addCPU(outer*p.IndexProbeCPU+float64(op.OutCard)*p.CPUTuple, op.Clone)
			d.addAt(m.spillDisk(inner), outer*p.IndexProbeIO*p.IOPage)
		case optree.Scan:
			// Rescan the inner heap once per outer tuple.
			rel := m.Cat.MustRelation(inner.Relation)
			d.addHeapIO(rel, outer*float64(rel.Pages)*p.IOPage)
			d.addCPU(outer*float64(inner.OutCard)*p.CPUCompare+float64(op.OutCard)*p.CPUTuple, op.Clone)
		default:
			// Materialized temporary: rescan its pages per outer tuple.
			pages := m.Cat.PagesForTuples(inner.OutCard, inner.Width)
			d.addAt(m.spillDisk(inner), outer*float64(pages)*p.IOPage)
			d.addCPU(outer*float64(inner.OutCard)*p.CPUCompare+float64(op.OutCard)*p.CPUTuple, op.Clone)
		}

	case optree.CreateIndex:
		n := float64(op.InCard)
		d.addCPU(n*log2(n)*p.CPUCompare+n*p.CPUTuple, op.Clone)
		idxPages := m.Cat.PagesForTuples(op.InCard, 16)
		d.addAt(m.spillDisk(op), float64(idxPages)*p.IOPage)
	}

	last := RV(d.w.Max(), d.w)
	switch op.Kind {
	case optree.Sort, optree.Build, optree.CreateIndex:
		// Blocking operators emit their first tuple only at the end.
		return ResDescriptor{First: last, Last: last}
	default:
		return ResDescriptor{First: ResVector{W: s.vec(m.Dim())}, Last: last}
	}
}

// redistribution builds the transfer descriptor for a repartitioned edge:
// network bytes on a network link, pipelined (first-tuple usage zero). On a
// machine without a network (shared memory), redistribution costs CPU on the
// producer's clones instead. On a multi-node machine only the fraction of
// the stream that actually crosses node boundaries is charged, per
// interconnect link, so a node-local repartition is cheaper than a cross-node
// one and the two are genuinely incomparable under the partial order.
func (m *Model) redistribution(s *Scratch, child *optree.Op) ResDescriptor {
	if m.placedCoLocated(child) {
		// A placed base relation repartitioned on its own placement column:
		// every shard is already at the node that consumes it, so the
		// exchange degenerates to a local hand-off — no interconnect bytes,
		// no latency. This is what makes co-located joins strictly cheaper
		// on the network dimensions and therefore incomparable with (rather
		// than dominated by) shapes that repartition.
		zero := ResVector{W: s.vec(m.Dim())}
		return ResDescriptor{First: zero, Last: zero}
	}
	bytes := float64(child.OutCard) * float64(child.Width)
	if m.M.Nodes() > 1 {
		return m.crossNodeRedistribution(s, child, bytes)
	}
	d := m.newDemand(s)
	if net, ok := m.M.NetworkFor(0); ok {
		d.addAt(net, bytes*m.P.NetByte)
	} else {
		d.addCPU(float64(child.OutCard)*m.P.CPUTuple, child.Clone)
	}
	return ResDescriptor{First: ResVector{W: s.vec(m.Dim())}, Last: RV(d.w.Max(), d.w)}
}

// crossNodeRedistribution charges a repartitioned edge on a shared-nothing
// machine. The child's clones on producer nodes P hash-partition B bytes
// uniformly to the parent's nodes T (the edge's RedistTargets; all nodes when
// unset), so node p sends B/(|P|·|T|) to each target. Traffic whose producer
// and consumer are the same node never touches the interconnect: node n's
// link carries its outbound share to the other targets plus its inbound
// share from the other producers. Each used link also charges its fixed
// startup latency once to the response time.
func (m *Model) crossNodeRedistribution(s *Scratch, child *optree.Op, bytes float64) ResDescriptor {
	producers := m.producerNodes(child)
	targets := child.RedistTargets
	if len(targets) == 0 {
		targets = make([]int, m.M.Nodes())
		for i := range targets {
			targets[i] = i
		}
	}
	share := bytes / (float64(len(producers)) * float64(len(targets)))
	d := m.newDemand(s)
	latency := 0.0
	charge := func(node int, xfer float64) {
		if xfer <= 0 {
			return
		}
		link, ok := m.M.LinkFor(node)
		if !ok {
			d.addCPU(xfer/float64(child.Width+1)*m.P.CPUTuple, child.Clone)
			return
		}
		d.addAt(link, xfer*m.P.NetByte)
		if lat := m.M.Resource(link).Latency; lat > latency {
			latency = lat
		}
	}
	for _, p := range producers {
		out := float64(len(targets))
		if _, ok := slices.BinarySearch(targets, p); ok { // both sets are sorted
			out--
		}
		charge(p, share*out)
	}
	for _, t := range targets {
		in := float64(len(producers))
		if _, ok := slices.BinarySearch(producers, t); ok {
			in--
		}
		charge(t, share*in)
	}
	return ResDescriptor{First: ResVector{W: s.vec(m.Dim())}, Last: RV(d.w.Max()+latency, d.w)}
}

// placedFor returns the placement entry of a base-relation access operator.
func (m *Model) placedFor(op *optree.Op) (PlacedRelation, bool) {
	if op.Kind != optree.Scan && op.Kind != optree.IndexScanOp {
		return PlacedRelation{}, false
	}
	pr, ok := m.Placed[op.Relation]
	return pr, ok
}

// placedCoLocated reports whether a redistributed edge is satisfied by the
// child's data placement: the child is a placed base-relation scan and the
// attribute the parent repartitions on is (canonically) the placement
// column, so the shards are already partitioned the way the consumer needs.
func (m *Model) placedCoLocated(child *optree.Op) bool {
	pr, ok := m.placedFor(child)
	if !ok || pr.Column == "" {
		return false
	}
	canon := m.Est.Canon(query.ColumnRef{Relation: child.Relation, Column: pr.Column})
	return canon == child.RedistAttr
}

// producerNodes returns the nodes a redistributed edge's bytes originate
// from: a placed base relation sends from the nodes holding its shards,
// anything else from the nodes hosting the child's clones.
func (m *Model) producerNodes(child *optree.Op) []int {
	pr, ok := m.placedFor(child)
	if !ok || len(pr.Nodes) == 0 {
		return optree.CloneNodes(child.Clone, m.M)
	}
	nodes := make([]int, len(pr.Nodes))
	for i, p := range pr.Nodes {
		nodes[i] = p % m.M.Nodes()
	}
	sort.Ints(nodes)
	return slices.Compact(nodes)
}

// spillDisk picks the disk temporaries of an operator live on: the home
// disk of the leftmost base relation beneath it, a deterministic stand-in
// for a real system's temp-space placement. The walk stops at an operator
// whose inputs were cut (a search keeps only a plan's root operator); the
// leftmost leaf of the join tree it was expanded from is the same relation.
func (m *Model) spillDisk(op *optree.Op) machine.ResourceID {
	cur := op
	for cur.Relation == "" && len(cur.Inputs) > 0 {
		cur = cur.Inputs[0]
	}
	name := cur.Relation
	if name == "" && cur.Source != nil {
		src := cur.Source
		for !src.IsLeaf() {
			src = src.Left
		}
		name = src.Relation
	}
	if rel, ok := m.Cat.Relation(name); ok {
		return m.M.DiskFor(rel.Disk)
	}
	return m.M.DiskFor(0)
}

// rightCard returns the cardinality of the second input of a two-input
// operator, zero otherwise.
func rightCard(op *optree.Op) int64 {
	if len(op.Inputs) < 2 {
		return 0
	}
	return op.Inputs[1].OutCard
}

func log2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}

// OwnDemands returns the operator's own per-resource work demands (speed
// normalized), independent of its children — the quantity a scheduler or
// simulator charges the machine for this task.
func (m *Model) OwnDemands(op *optree.Op) Vec { return m.base(nil, op).Last.W }

// TransferDemands returns the per-resource demands of redistributing an
// operator's output (the §4.2 redistribution annotation).
func (m *Model) TransferDemands(op *optree.Op) Vec { return m.redistribution(nil, op).Last.W }

// PlanCost expands, annotates and costs an annotated join tree in one step.
// It returns the descriptor and the operator tree it was computed from, on
// the heap; like all pricing outside a search, it is safe for concurrent use.
func (m *Model) PlanCost(n *plan.Node, eopts optree.ExpandOptions, aopts optree.AnnotateOptions) (ResDescriptor, *optree.Op, error) {
	d, op, _, _, err := m.ExtendCost(nil, n, nil, ResDescriptor{}, 0, eopts, aopts)
	return d, op, err
}

// ExtendCost is PlanCost for a join node whose left operand was priced before,
// on its own: left is that operand's annotated operator tree, leftDesc its
// descriptor and leftDeg its total clone degree. Only the right operand and
// the join's root operators are expanded, annotated (from offset leftDeg) and
// costed — §5's tree(L, R, root) with L taken as given. The result is
// bit-identical to PlanCost(n) because a left operand is annotated, hence
// priced, inside the tree exactly as standalone (optree.AnnotateAbove). left
// is not mutated; a nil left prices the whole tree. It also returns done, the
// copy of left's root the new operators sit on, and the total clone degree.
// ExtendCost resets s and prices in it (on the heap for a nil s); the result
// lives there until s's next use: a caller copies out what it keeps.
func (m *Model) ExtendCost(s *Scratch, n *plan.Node, left *optree.Op, leftDesc ResDescriptor, leftDeg int, eopts optree.ExpandOptions, aopts optree.AnnotateOptions) (d ResDescriptor, root, done *optree.Op, deg int, err error) {
	var a *optree.Arena
	if s != nil {
		s.used, a = 0, &s.ops
		a.Reset()
	}
	if root, done, err = optree.ExpandOver(a, n, left, m.Est, eopts); err != nil {
		return ResDescriptor{}, nil, nil, 0, fmt.Errorf("cost: %w", err)
	}
	deg = optree.AnnotateAbove(root, done, leftDeg, m.M, m.Est, aopts)
	return m.descriptor(s, root, done, leftDesc), root, done, deg, nil
}
