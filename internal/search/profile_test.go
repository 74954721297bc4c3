package search

import (
	"runtime"
	"testing"

	"paropt/internal/plan"
)

// TestCandidateBytesIsWhatPromoteAllocates pins the search.peak_retained_kb
// estimate to the code: N promotions of a leaf, of a join and of a root join
// allocate candidateBytes each, up to the allocator's size-class rounding
// (at most an eighth of an object, or 16 bytes for a small one).
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
		name  string
		left  *Candidate
		node  *plan.Node
		card  int
		root  bool
		alloc int // objects promote allocates
	}{
		{"leaf", &nothing, leaves[0], 1, false, 3},
		{"join", left, nodes[len(nodes)-1], 2, false, 4},
		{"root", left, nodes[len(nodes)-1], 2, true, 3},
	} {
		s.root = tc.root
		c, err := s.extend(tc.left, tc.node)
		if err != nil || c == nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range kept {
			kept[i] = s.promote(c)
		}
		runtime.ReadMemStats(&after)
		got, want := int64(after.TotalAlloc-before.TotalAlloc)/n, s.candidateBytes(tc.card)
		t.Logf("%s: promote allocates %d bytes, candidateBytes %d", tc.name, got, want)
		if got < want || got > want+want/8+int64(16*tc.alloc) {
			t.Errorf("%s: promote allocates %d bytes per candidate, candidateBytes says %d", tc.name, got, want)
		}
	}
}
