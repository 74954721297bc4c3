package search

import (
	"runtime"
	"testing"
	"unsafe"

	"paropt/internal/plan"
)

// slabBytes is what the slab's chunks hold carved: what promote has taken.
func slabBytes(sl *slab) int64 {
	return carved(&sl.cands) + carved(&sl.floats) + carved(&sl.nodes) + carved(&sl.ops)
}

func carved[T any](c *chunks[T]) int64 {
	var n int64
	for _, ch := range c.all {
		n += int64(len(ch))
	}
	var zero T
	return n * int64(unsafe.Sizeof(zero))
}

// TestCandidateBytesIsWhatPromoteAllocates pins the search.peak_retained_kb
// estimate to the code: N promotions of a leaf, of a join and of a root join
// take exactly candidateBytes each from the worker's slab, and once the slab
// has grown and been cleared for another search they allocate nothing.
func TestCandidateBytesIsWhatPromoteAllocates(t *testing.T) {
	s := New(benchOptions(t))
	leaves := s.mustLeaves(t, 0)
	left, err := s.extend(&nothing, leaves[0])
	if err != nil || left == nil {
		t.Fatal(err)
	}
	left = s.promote(left)
	nodes, err := s.joinNodes(left.Node, s.mustLeaves(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	kept := make([]*Candidate, n)
	for _, tc := range []struct {
		name string
		left *Candidate
		node *plan.Node
		card int
		root bool
	}{
		{"leaf", &nothing, leaves[0], 1, false},
		{"join", left, nodes[len(nodes)-1], 2, false},
		{"root", left, nodes[len(nodes)-1], 2, true},
	} {
		s.root = tc.root
		c, err := s.extend(tc.left, tc.node)
		if err != nil || c == nil {
			t.Fatal(err)
		}
		before := slabBytes(s.slab)
		for i := range kept {
			kept[i] = s.promote(c)
		}
		got, want := (slabBytes(s.slab)-before)/n, s.candidateBytes(tc.card)
		t.Logf("%s: promote takes %d bytes, candidateBytes %d", tc.name, got, want)
		if got != want {
			t.Errorf("%s: promote takes %d bytes per candidate from its slab, candidateBytes says %d", tc.name, got, want)
		}
	}
	s.root = false
	s.slab.reset()
	c, err := s.extend(&nothing, leaves[0])
	if err != nil || c == nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = s.promote(c)
	}
	runtime.ReadMemStats(&after)
	if heap := after.TotalAlloc - before.TotalAlloc; heap != 0 {
		t.Errorf("%d promotions into a cleared slab allocated %d bytes, want 0", n, heap)
	}
}
