package optree

import (
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
	if opts.MinTuplesPerClone <= 0 {
		opts.MinTuplesPerClone = 10_000
	}
	maxDeg := len(m.CPUs())
	if opts.MaxDegree > 0 && opts.MaxDegree < maxDeg {
		maxDeg = opts.MaxDegree
	}
	offset := 0
	root.Walk(func(op *Op) {
		size := op.InCard
		if size < op.OutCard {
			size = op.OutCard
		}
		deg := int((size + opts.MinTuplesPerClone - 1) / opts.MinTuplesPerClone)
		if deg < 1 {
			deg = 1
		}
		if deg > maxDeg {
			deg = maxDeg
		}
		res := make([]machine.ResourceID, deg)
		for i := range res {
			res[i] = m.CPUFor(offset + i)
		}
		offset += deg
		op.Clone = Cloning{Resources: res, Attribute: partitionAttr(op, est)}
	})
	// Second pass: redistribution on edges. On multi-node machines the edge
	// also records which nodes the repartitioned stream is sent to (the
	// nodes hosting the parent's clone set), so the cost model can charge
	// the right interconnect links.
	root.Walk(func(op *Op) {
		for _, in := range op.Inputs {
			in.Redistribute = needsRedistribution(in, op, est)
			in.RedistTargets = nil
			in.RedistAttr = query.ColumnRef{}
			if in.Redistribute {
				in.RedistAttr = est.Canon(op.Clone.Attribute)
				if m.Nodes() > 1 {
					in.RedistTargets = CloneNodes(op.Clone, m)
				}
			}
		}
	})
}

// CloneNodes returns the sorted distinct nodes hosting a clone set (the node
// of CPU 0 when the operator is not cloned).
func CloneNodes(c Cloning, m *machine.Machine) []int {
	res := c.Resources
	if len(res) == 0 {
		res = []machine.ResourceID{m.CPUFor(0)}
	}
	seen := map[int]bool{}
	var nodes []int
	for _, r := range res {
		n := m.NodeOf(r)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	return nodes
}

// partitionAttr picks the attribute an operator's input is partitioned on.
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
func needsRedistribution(child, parent *Op, est *plan.Estimator) bool {
	pd := parent.Clone.Degree()
	cd := child.Clone.Degree()
	if pd == 1 && cd == 1 {
		return false
	}
	// Build/probe pairs and merges need both inputs partitioned on the join
	// attribute across the same clone set.
	pAttr := est.Canon(parent.Clone.Attribute)
	cAttr := est.Canon(child.Clone.Attribute)
	if pAttr != cAttr {
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
