package optree

import (
	"math/rand"
	"slices"
	"testing"

	"paropt/internal/machine"
)

// TestAnnotateOperandsContextFreeUpToOffset names the property pricing by
// composition (cost.Model.ExtendCost, search's extend) stands on. Annotate
// walks post-order, Inputs[0] first, handing out CPUs from one offset that
// starts at 0, so inside any join:
//
//   - the LEFT operand is annotated exactly as it is standalone — same clone
//     sets, attributes and interior edges; only its edge to the new parent is
//     new — hence it is priced exactly as standalone;
//   - the RIGHT operand is its standalone self with every clone set rotated
//     by the total clone degree of everything before it (the left operand and
//     a sort over it): same degrees, attributes and interior redistribution
//     flags, CPUs shifted.
//
// A change to how clones are placed (ROADMAP item 1 step 1) must keep the
// first half or replace ExtendCost's reuse of the left operand with it.
func TestAnnotateOperandsContextFreeUpToOffset(t *testing.T) {
	_, q, e := fixture(t)
	m := machine.New(machine.Config{CPUs: 4, Disks: 4, Networks: 1})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		opts := AnnotateOptions{MinTuplesPerClone: []int64{10_000, 25_000, 1 << 40}[trial%3]}
		p := randomPlanOver(t, e, q, rng)
		whole, err := Expand(p, e, DefaultExpandOptions())
		if err != nil {
			t.Fatal(err)
		}
		Annotate(whole, m, e, opts)
		alone := func(sub int) *Op {
			n := p.Left
			if sub == 1 {
				n = p.Right
			}
			op, err := Expand(n, e, DefaultExpandOptions())
			if err != nil {
				t.Fatal(err)
			}
			Annotate(op, m, e, opts)
			return op
		}
		// The operand sits under the join's own sort/build/create-index, if any.
		embedded := func(sub int) *Op {
			op := whole.Inputs[sub]
			if op.Source == p {
				op = op.Inputs[0]
			}
			return op
		}

		left, leftIn := alone(0), embedded(0)
		if !sameSubtree(left, leftIn, m, 0) {
			t.Fatalf("trial %d: %s: left operand annotated differently inside the join\nstandalone\n%s\nwhole\n%s",
				trial, p, left.AnnotationTable(), whole.AnnotationTable())
		}
		before := totalDegree(whole.Inputs[0])
		if right := alone(1); !sameSubtree(right, embedded(1), m, before) {
			t.Fatalf("trial %d: %s: right operand is not its standalone self rotated by %d\nstandalone\n%s\nwhole\n%s",
				trial, p, before, right.AnnotationTable(), whole.AnnotationTable())
		}

		// And the composition built on it: expanding and annotating only what
		// is above the standalone left operand gives the whole tree's
		// annotations and total degree, and leaves the operand untouched.
		leftTable := left.AnnotationTable()
		root, done, err := ExpandOver(new(Arena), p, left, e, DefaultExpandOptions())
		if err != nil {
			t.Fatal(err)
		}
		deg, total := AnnotateAbove(root, done, totalDegree(left), m, e, opts), totalDegree(whole)
		if root.AnnotationTable() != whole.AnnotationTable() || root.String() != whole.String() || deg != total {
			t.Fatalf("trial %d: %s: composed (degree %d)\n%s\nwhole (degree %d)\n%s",
				trial, p, deg, root.AnnotationTable(), total, whole.AnnotationTable())
		}
		if done == left || left.Redistribute || left.AnnotationTable() != leftTable {
			t.Fatalf("trial %d: %s: ExpandOver/AnnotateAbove mutated the left operand's tree", trial, p)
		}
	}
}

// totalDegree is the offset Annotate's walk ends at.
func totalDegree(op *Op) int {
	n := 0
	op.Walk(func(o *Op) { n += o.Clone.Degree() })
	return n
}

// sameSubtree compares two annotated trees of one plan operator by operator:
// equal kinds, degrees, partitioning attributes and interior edges, and b's
// CPUs are a's shifted by rot positions of the round-robin.
func sameSubtree(a, b *Op, m *machine.Machine, rot int) bool {
	var as, bs []*Op
	a.Walk(func(o *Op) { as = append(as, o) })
	b.Walk(func(o *Op) { bs = append(bs, o) })
	if len(as) != len(bs) {
		return false
	}
	offset := 0
	for i, x := range as {
		y := bs[i]
		if x.Kind != y.Kind || x.Clone.Attribute != y.Clone.Attribute || x.Clone.Degree() != y.Clone.Degree() {
			return false
		}
		want := make([]machine.ResourceID, len(x.Clone.Resources))
		for j := range want {
			want[j] = m.CPUFor(offset + rot + j)
		}
		if !slices.Equal(y.Clone.Resources, want) {
			return false
		}
		offset += len(want)
		// The root's edge belongs to whatever is above it.
		if i < len(as)-1 && (x.Redistribute != y.Redistribute || x.RedistAttr != y.RedistAttr || x.Composition != y.Composition) {
			return false
		}
	}
	return true
}
