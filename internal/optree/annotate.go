package optree

import (
	"slices"
	"sort"

	"paropt/internal/machine"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// AnnotateOptions tunes the cloning and redistribution annotator.
type AnnotateOptions struct {
	// MaxDegree caps the number of clones per operator; 0 means the
	// machine's CPU count.
	MaxDegree int
	// MinTuplesPerClone avoids cloning small operators: the degree is at
	// most ceil(inputCard / MinTuplesPerClone). Zero means 10 000.
	MinTuplesPerClone int64
}

// DefaultAnnotateOptions clones down to 10k tuples per clone, machine-wide.
func DefaultAnnotateOptions() AnnotateOptions {
	return AnnotateOptions{MinTuplesPerClone: 10_000}
}

// Annotate assigns cloning and redistribution annotations to every operator
// of the tree (§4.2 annotations 2 and 3). The policy is deterministic:
//
//   - The cloning degree of an operator is proportional to its input size
//     (one clone per MinTuplesPerClone tuples) capped by MaxDegree and the
//     machine's CPU count; leaves are never cloned wider than their
//     relation's placement allows parallel reads.
//   - Clones run on CPUs assigned round-robin from a rotating offset so
//     independent subtrees land on different CPUs first.
//   - The partitioning attribute is the operator's join column when it has
//     predicates, otherwise the attribute inherited from its first input.
//   - Redistribute is set on a (child, parent) edge when the parent is
//     cloned and the child's partitioning attribute differs (after
//     canonicalization) from the parent's, or their degrees differ.
func Annotate(root *Op, m *machine.Machine, est *plan.Estimator, opts AnnotateOptions) {
	AnnotateAbove(root, nil, 0, m, est, opts)
}

// AnnotateAbove is Annotate for a tree whose leftmost subtree done was
// annotated before, on its own: the walk is post-order, Inputs[0] first, from
// offset 0, so done's operators are annotated in the tree exactly as they
// were standalone and everything else depends on them only through offset,
// done's total clone degree. It annotates the operators outside done (both
// passes, the done→parent edge included) and returns the tree's total clone
// degree. A nil done and offset 0 annotate the whole tree.
func AnnotateAbove(root, done *Op, offset int, m *machine.Machine, est *plan.Estimator, opts AnnotateOptions) int {
	a := annotator{m: m, est: est, done: done, perClone: opts.MinTuplesPerClone, maxDeg: len(m.CPUs()), offset: offset}
	if a.perClone <= 0 {
		a.perClone = 10_000
	}
	if opts.MaxDegree > 0 && opts.MaxDegree < a.maxDeg {
		a.maxDeg = opts.MaxDegree
	}
	a.clone(root)
	a.edges(root)
	return a.offset
}

// annotator is one AnnotateAbove run: the resolved options, the rotating CPU
// offset and the subtree to leave alone.
type annotator struct {
	m              *machine.Machine
	est            *plan.Estimator
	done           *Op
	perClone       int64
	maxDeg, offset int
}

// clone is the first pass: cloning degree, CPUs and partitioning attribute,
// children before parents.
func (a *annotator) clone(op *Op) {
	if op == a.done {
		return
	}
	for _, in := range op.Inputs {
		a.clone(in)
	}
	size := op.InCard
	if size < op.OutCard {
		size = op.OutCard
	}
	deg := int((size + a.perClone - 1) / a.perClone)
	if deg < 1 {
		deg = 1
	}
	if deg > a.maxDeg {
		deg = a.maxDeg
	}
	op.Clone = Cloning{Resources: a.m.CPUWindow(a.offset, deg), Attribute: partitionAttr(op, a.est)}
	a.offset += deg
}

// edges is the second pass: redistribution on edges. On multi-node machines
// the edge also records which nodes the repartitioned stream is sent to (the
// nodes hosting the parent's clone set), so the cost model can charge the
// right interconnect links.
func (a *annotator) edges(op *Op) {
	if op == a.done {
		return
	}
	for _, in := range op.Inputs {
		a.edges(in)
		in.Redistribute = needsRedistribution(in, op)
		in.RedistTargets = nil
		in.RedistAttr = query.ColumnRef{}
		if in.Redistribute {
			in.RedistAttr = op.Clone.Attribute
			if a.m.Nodes() > 1 {
				in.RedistTargets = CloneNodes(op.Clone, a.m)
			}
		}
	}
}

// CloneNodes returns the sorted distinct nodes hosting a clone set (the node
// of CPU 0 when the operator is not cloned).
func CloneNodes(c Cloning, m *machine.Machine) []int {
	if len(c.Resources) == 0 {
		return []int{m.NodeOf(m.CPUFor(0))}
	}
	nodes := make([]int, len(c.Resources))
	for i, r := range c.Resources {
		nodes[i] = m.NodeOf(r)
	}
	sort.Ints(nodes)
	return slices.Compact(nodes)
}

// partitionAttr picks the attribute an operator's input is partitioned on,
// canonical by construction: a join predicate's or a scan's column through
// est.Canon, or the first input's attribute, already canonical.
func partitionAttr(op *Op, est *plan.Estimator) query.ColumnRef {
	if len(op.Preds) > 0 {
		return est.Canon(op.Preds[0].Left)
	}
	switch op.Kind {
	case Scan, IndexScanOp:
		col := ""
		if op.Index != nil && len(op.Index.Columns) > 0 {
			col = op.Index.Columns[0]
		} else if rel, ok := est.Cat.Relation(op.Relation); ok && len(rel.Columns) > 0 {
			col = rel.Columns[0].Name
		}
		return est.Canon(query.ColumnRef{Relation: op.Relation, Column: col})
	default:
		if len(op.Inputs) > 0 {
			return op.Inputs[0].Clone.Attribute
		}
	}
	return query.ColumnRef{}
}

// needsRedistribution decides the redistribution flag for edge child→parent.
// Clone attributes are canonical (partitionAttr), so they compare as they are.
func needsRedistribution(child, parent *Op) bool {
	pd := parent.Clone.Degree()
	cd := child.Clone.Degree()
	if pd == 1 && cd == 1 {
		return false
	}
	// Build/probe pairs and merges need both inputs partitioned on the join
	// attribute across the same clone set.
	if parent.Clone.Attribute != child.Clone.Attribute {
		return true
	}
	if pd != cd {
		return true
	}
	for i := range parent.Clone.Resources {
		if parent.Clone.Resources[i] != child.Clone.Resources[i] {
			return true
		}
	}
	return false
}
