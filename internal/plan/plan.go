// Package plan defines the execution space of annotated join trees (§3 of
// the paper): binary trees whose internal nodes are joins and whose leaves
// are base-relation accesses, with annotations such as the join method and
// access path. Trees may be left-deep or bushy; the semantic constraint that
// every subtree tuple is computed exactly once is enforced by construction
// (each relation appears in exactly one leaf).
//
// Nodes are immutable after construction and may be shared between plans,
// which is what dynamic programming over subsets requires.
package plan

import (
	"fmt"
	"strings"

	"paropt/internal/catalog"
	"paropt/internal/query"
)

// JoinMethod is the join-method annotation of a join node.
type JoinMethod uint8

const (
	// NestedLoops probes the inner once per outer tuple, ideally through an
	// index; output preserves the outer order and is fully pipelined.
	NestedLoops JoinMethod = iota
	// SortMerge sorts both inputs (unless already ordered) and merges;
	// output is ordered on the join column; the sorts materialize.
	SortMerge
	// HashJoin builds a hash table on the inner and probes with the outer;
	// the build materializes, the probe pipelines; output is unordered.
	HashJoin
)

// AllJoinMethods lists every method, in the order optimizers enumerate them.
var AllJoinMethods = []JoinMethod{NestedLoops, SortMerge, HashJoin}

// String names the method as in the paper's examples.
func (m JoinMethod) String() string {
	switch m {
	case NestedLoops:
		return "nested-loops"
	case SortMerge:
		return "sort-merge"
	case HashJoin:
		return "hash-join"
	default:
		return fmt.Sprintf("join-method(%d)", int(m))
	}
}

// Access is the access-path annotation of a leaf.
type Access uint8

const (
	// SeqScan reads the heap sequentially.
	SeqScan Access = iota
	// IndexScan reads through an index; clustered indexes read the heap in
	// key order, unclustered ones fetch one page per qualifying tuple.
	IndexScan
)

// String names the access path.
func (a Access) String() string {
	switch a {
	case SeqScan:
		return "scan"
	case IndexScan:
		return "indexScan"
	default:
		return fmt.Sprintf("access(%d)", int(a))
	}
}

// Ordering is a physical tuple ordering: a sequence of columns, normalized
// to equivalence-class representatives so that an order on R.id is
// recognized as an order on S.fk after an R.id = S.fk join. The paper (§6.3)
// compares orderings by the "subsequence of" relation.
type Ordering []query.ColumnRef

// Empty reports whether no ordering is known.
func (o Ordering) Empty() bool { return len(o) == 0 }

// Equal reports element-wise equality.
func (o Ordering) Equal(p Ordering) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Prefix reports whether o is a prefix of p. A plan ordered by p satisfies
// any requirement that is a prefix of p.
func (o Ordering) Prefix(p Ordering) bool {
	if len(o) > len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Subsequence reports whether o is a (not necessarily contiguous)
// subsequence of p — the paper's ≤ordering relation.
func (o Ordering) Subsequence(p Ordering) bool {
	i := 0
	for _, c := range p {
		if i < len(o) && o[i] == c {
			i++
		}
	}
	return i == len(o)
}

// String renders "R.a,R.b" or "-" when empty.
func (o Ordering) String() string {
	if len(o) == 0 {
		return "-"
	}
	parts := make([]string, len(o))
	for i, c := range o {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// Node is one node of an annotated join tree. A node is a leaf when Left is
// nil, and a join when Left and Right are both non-nil.
type Node struct {
	// Leaf fields.
	Relation string
	Access   Access
	// Index is the access index when Access == IndexScan.
	Index *catalog.Index

	// Join fields.
	Left, Right *Node
	Method      JoinMethod
	// Preds are the equijoin predicates applied at this node.
	Preds []query.JoinPredicate

	// Derived logical and physical properties, filled by the Estimator.

	// Rels is the set of base relations under this node.
	Rels query.RelSet
	// Card is the estimated output cardinality.
	Card int64
	// Width is the estimated output tuple byte width.
	Width int
	// Order is the physical output ordering (canonicalized), possibly empty.
	Order Ordering
}

// IsLeaf reports whether the node is a base-relation access.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Leaves appends the leaf nodes in left-to-right order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
			return
		}
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	return out
}

// LeftDeep reports whether every right child is a leaf — the System R shape.
func (n *Node) LeftDeep() bool {
	if n.IsLeaf() {
		return true
	}
	return n.Right.IsLeaf() && n.Left.LeftDeep()
}

// Depth is the number of join levels (0 for a leaf).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if r > l {
		l = r
	}
	return l + 1
}

// NumJoins counts the join nodes.
func (n *Node) NumJoins() int {
	if n.IsLeaf() {
		return 0
	}
	return 1 + n.Left.NumJoins() + n.Right.NumJoins()
}

// String renders the plan in the paper's functional notation, e.g.
// "NL(SM(scan(R1), scan(R2)), indexScan(I_R3))".
func (n *Node) String() string { return string(n.AppendString(nil)) }

// AppendString appends String's rendering of the plan to b.
func (n *Node) AppendString(b []byte) []byte {
	if n.IsLeaf() {
		if n.Access == IndexScan && n.Index != nil {
			return append(append(append(b, "indexScan("...), n.Index.Name...), ')')
		}
		return append(append(append(b, "scan("...), n.Relation...), ')')
	}
	switch n.Method {
	case NestedLoops:
		b = append(b, "NL("...)
	case SortMerge:
		b = append(b, "SM("...)
	case HashJoin:
		b = append(b, "HJ("...)
	default:
		b = append(b, "J("...)
	}
	b = append(n.Left.AppendString(b), ", "...)
	return append(n.Right.AppendString(b), ')')
}

// Indent renders a multi-line tree for explain output.
func (n *Node) Indent() string {
	var b strings.Builder
	var walk func(m *Node, depth int)
	walk = func(m *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if m.IsLeaf() {
			fmt.Fprintf(&b, "%s %s", m.Access, m.Relation)
			if m.Index != nil {
				fmt.Fprintf(&b, " via %s", m.Index.Name)
			}
		} else {
			fmt.Fprintf(&b, "%s", m.Method)
			if len(m.Preds) > 0 {
				preds := make([]string, len(m.Preds))
				for i, p := range m.Preds {
					preds[i] = p.String()
				}
				fmt.Fprintf(&b, " on %s", strings.Join(preds, " AND "))
			}
		}
		fmt.Fprintf(&b, "  [card=%d order=%s]\n", m.Card, m.Order)
		if !m.IsLeaf() {
			walk(m.Left, depth+1)
			walk(m.Right, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
