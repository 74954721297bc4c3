// Package optree implements the operator trees of §4 of the paper: each
// annotated join tree macro-expands into a unique tree of scheduler-atomic
// operators (scan, sort, merge, build, probe, pure-nested-loops,
// create-index), annotated per (child, parent) edge with the composition
// method (pipelined or materialized), with cloning (intra-operator
// parallelism over a set of resources on a partitioning attribute), and
// with a data-redistribution flag.
package optree

import (
	"fmt"
	"strings"

	"paropt/internal/catalog"
	"paropt/internal/machine"
	"paropt/internal/plan"
	"paropt/internal/query"
)

// Kind identifies an atomic operator.
type Kind uint8

const (
	// Scan reads a base relation's heap.
	Scan Kind = iota
	// IndexScanOp reads a base relation through an index.
	IndexScanOp
	// Sort orders its input; it materializes by nature.
	Sort
	// Merge combines two sorted inputs (the merge phase of sort-merge).
	Merge
	// Build constructs a hash table from its input; materializes.
	Build
	// Probe streams its left input against a built hash table.
	Probe
	// PureNL is a nested-loops join "without any inflections" (§4.2).
	PureNL
	// CreateIndex builds a temporary index on its input for a subsequent
	// nested-loops probe; materializes.
	CreateIndex
)

// String names the kind as in the paper's examples.
func (k Kind) String() string {
	switch k {
	case Scan:
		return "scan"
	case IndexScanOp:
		return "indexScan"
	case Sort:
		return "sort"
	case Merge:
		return "merge"
	case Build:
		return "build"
	case Probe:
		return "probe"
	case PureNL:
		return "pure-nested-loops"
	case CreateIndex:
		return "create-index"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Composition is the composition-method annotation for a (child, parent)
// pair, stored on the child (§4.2 annotation 1).
type Composition uint8

const (
	// Pipelined means the child produces partial output the parent consumes
	// as it arrives.
	Pipelined Composition = iota
	// Materialized means the child runs to completion before the parent
	// consumes anything; the cost calculus applies sync() to its descriptor.
	Materialized
)

// String names the composition method.
func (c Composition) String() string {
	if c == Materialized {
		return "materialized"
	}
	return "pipelined"
}

// Cloning is the intra-operator-parallelism annotation (§4.2 annotation 2):
// a set of resources and the attribute the input is partitioned on.
type Cloning struct {
	// Resources are the CPU resources the clones run on; empty means the
	// operator is not cloned. The annotator hands out windows of a table the
	// machine shares (machine.CPUWindow): read them, never write them.
	Resources []machine.ResourceID
	// Attribute is the partitioning attribute.
	Attribute query.ColumnRef
}

// Degree is the number of clones (1 if not cloned).
func (c Cloning) Degree() int {
	if len(c.Resources) == 0 {
		return 1
	}
	return len(c.Resources)
}

// String renders "({1,2},R.a)" or "-".
func (c Cloning) String() string {
	if len(c.Resources) == 0 {
		return "-"
	}
	parts := make([]string, len(c.Resources))
	for i, r := range c.Resources {
		parts[i] = fmt.Sprint(int(r))
	}
	return fmt.Sprintf("({%s},%s)", strings.Join(parts, ","), c.Attribute)
}

// Op is one node of an operator tree.
type Op struct {
	Kind Kind
	// Relation and Index identify the accessed object for Scan,
	// IndexScanOp and CreateIndex leaves.
	Relation string
	Index    *catalog.Index
	// Inputs are the child operators, producer-first. Scans have none;
	// Sort, Build, CreateIndex have one; Merge, Probe, PureNL have two.
	Inputs []*Op

	// Composition annotates the edge to the parent (meaningless on roots).
	Composition Composition
	// Clone annotates intra-operator parallelism.
	Clone Cloning
	// Redistribute is true when this node's output must be repartitioned
	// before its parent consumes it (§4.2 annotation 3).
	Redistribute bool
	// RedistTargets is the sorted set of shared-nothing nodes the
	// repartitioned output is sent to (the nodes hosting the parent's clone
	// set). Empty on single-node machines and on non-redistributed edges.
	RedistTargets []int
	// RedistAttr is the canonical attribute the parent repartitions this
	// node's output on (set only when Redistribute is true). The cost model
	// compares it against the placement map: a placed base-relation scan
	// repartitioned on its own placement column is already where it needs to
	// be, so the redistribution is free.
	RedistAttr query.ColumnRef

	// Derived size information for costing.

	// InCard and OutCard are input/output tuple counts (for two-input
	// operators InCard is the left/probe/outer input; the other input's
	// size is read from Inputs[1]).
	InCard, OutCard int64
	// Width is the output tuple byte width.
	Width int
	// Preds are the join predicates evaluated here (join operators only).
	Preds []query.JoinPredicate
	// SortKey is the column a Sort operator orders by (the merge column on
	// its side of the join); zero for other kinds.
	SortKey query.ColumnRef
	// Source is the join-tree node this operator was expanded from.
	Source *plan.Node
}

// NumInputsWant returns the arity the kind requires.
func (k Kind) NumInputsWant() int {
	switch k {
	case Scan, IndexScanOp:
		return 0
	case Sort, Build, CreateIndex:
		return 1
	case Merge, Probe, PureNL:
		return 2
	}
	return 0
}

// Validate checks structural arity recursively.
func (o *Op) Validate() error { return o.validate(nil) }

// validate is Validate stopping at done, a subtree validated before.
func (o *Op) validate(done *Op) error {
	if o == done {
		return nil
	}
	if got, want := len(o.Inputs), o.Kind.NumInputsWant(); got != want {
		return fmt.Errorf("optree: %s has %d inputs, wants %d", o.Kind, got, want)
	}
	for _, in := range o.Inputs {
		if err := in.validate(done); err != nil {
			return err
		}
	}
	return nil
}

// EffectiveInputs returns the children that execute as distinct tasks: a
// nested-loops inner that is a base access (heap or index) is not scanned
// once on its own — it is probed or rescanned per outer tuple, and that
// cost belongs to the loop itself. Cost model and simulator share this rule
// so their accounting agrees.
func (o *Op) EffectiveInputs() []*Op {
	if o.Kind == PureNL && len(o.Inputs) == 2 {
		switch o.Inputs[1].Kind {
		case Scan, IndexScanOp:
			return o.Inputs[:1]
		}
	}
	return o.Inputs
}

// Walk visits the tree bottom-up (children before parents).
func (o *Op) Walk(fn func(*Op)) {
	for _, in := range o.Inputs {
		in.Walk(fn)
	}
	fn(o)
}

// Count returns the number of operators in the tree.
func (o *Op) Count() int {
	n := 0
	o.Walk(func(*Op) { n++ })
	return n
}

// MaterializedFront returns the maximal subtrees whose roots carry the
// Materialized annotation — the paper's "materialized front" S2 of S1: the
// minimal set of subtrees that must finish before the first tuple of the
// whole tree is produced (§5, first-tuple descriptor). Fronts are collected
// top-down: a materialized node hides any materialized descendants.
func (o *Op) MaterializedFront() []*Op {
	var front []*Op
	var walk func(*Op)
	walk = func(op *Op) {
		for _, in := range op.Inputs {
			if in.Composition == Materialized {
				front = append(front, in)
			} else {
				walk(in)
			}
		}
	}
	walk(o)
	return front
}

// String renders the functional notation of the paper, e.g.
// "merge(sort(scan(R1)), sort(scan(R2)))".
func (o *Op) String() string {
	var b strings.Builder
	o.write(&b)
	return b.String()
}

func (o *Op) write(b *strings.Builder) {
	b.WriteString(o.Kind.String())
	b.WriteByte('(')
	switch o.Kind {
	case Scan:
		b.WriteString(o.Relation)
	case IndexScanOp:
		if o.Index != nil {
			b.WriteString(o.Index.Name)
		} else {
			b.WriteString(o.Relation)
		}
	default:
		for i, in := range o.Inputs {
			if i > 0 {
				b.WriteString(", ")
			}
			in.write(b)
		}
	}
	b.WriteByte(')')
}

// AnnotationTable renders one row per operator in the style of Example 1:
// node, cloning, composition method, redistribution.
func (o *Op) AnnotationTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-20s %-14s %s\n", "Node", "cloning", "comp. method", "redistr.")
	o.Walk(func(op *Op) {
		name := op.Kind.String()
		if op.Kind == Scan || op.Kind == IndexScanOp {
			name = fmt.Sprintf("%s(%s)", op.Kind, op.Relation)
		}
		redistr := "no"
		if op.Redistribute {
			redistr = "yes"
			if len(op.RedistTargets) > 0 {
				parts := make([]string, len(op.RedistTargets))
				for i, n := range op.RedistTargets {
					parts[i] = fmt.Sprintf("n%d", n)
				}
				redistr = "yes→{" + strings.Join(parts, ",") + "}"
			}
		}
		fmt.Fprintf(&b, "%-24s %-20s %-14s %s\n", name, op.Clone, op.Composition, redistr)
	})
	return b.String()
}
