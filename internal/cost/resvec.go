package cost

import (
	"fmt"
	"strings"
)

// Vec is per-resource work: Vec[i] is the effective busy time demanded from
// resource i (already normalized by the resource's speed). Its length is the
// machine's resource count l.
type Vec []float64

// NewVec returns a zero vector of dimension l.
func NewVec(l int) Vec { return make(Vec, l) }

// Add returns v + u component-wise.
func (v Vec) Add(u Vec) Vec { return add(NewVec(len(v)), v, u) }

// Sub returns v − u component-wise, floored at zero (work already performed
// cannot be negative; the floor keeps residuals physical).
func (v Vec) Sub(u Vec) Vec { return sub(NewVec(len(v)), v, u) }

// add writes v + u into dst. The calculus writes into caller-supplied vectors
// (lower-case twins of its operators), which the value API wraps.
func add(dst, v, u Vec) Vec {
	for i := range dst {
		dst[i] = v[i] + u[i]
	}
	return dst
}

// sub writes v − u, floored at zero, into dst and returns it.
func sub(dst, v, u Vec) Vec {
	for i := range dst {
		dst[i] = v[i] - u[i]
		if dst[i] < 0 {
			dst[i] = 0
		}
	}
	return dst
}

// Max is the largest component (the busiest resource's work).
func (v Vec) Max() float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum is the total work across all resources.
func (v Vec) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// IsZero reports whether every component is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// LessEq reports component-wise v ≤ u — the paper's l-dimensional less-than.
func (v Vec) LessEq(u Vec) bool {
	for i := range v {
		if v[i] > u[i] {
			return false
		}
	}
	return true
}

// String renders "[w0 w1 ...]" with compact formatting.
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ResVector is the §5.2.1 resource usage abstraction (t, w⃗): t is the
// response time of the fragment (all resources are freed by t, using the
// stretching property to align them) and w⃗ the per-resource work.
type ResVector struct {
	T Time
	W Vec
}

// RV constructs a ResVector.
func RV(t Time, w Vec) ResVector { return ResVector{T: t, W: w} }

// ZeroRV returns the identity element of dimension l.
func ZeroRV(l int) ResVector { return ResVector{W: NewVec(l)} }

// String renders "(t, [w...])".
func (r ResVector) String() string { return fmt.Sprintf("(%g, %s)", r.T, r.W) }

// Seq is r1 ; r2 = (t1 + t2, w1 + w2): sequential execution.
func (r ResVector) Seq(u ResVector) ResVector { return r.seq(NewVec(len(r.W)), u) }

func (r ResVector) seq(w Vec, u ResVector) ResVector {
	return ResVector{T: r.T + u.T, W: add(w, r.W, u.W)}
}

// Minus is the vector subtraction used for residuals (the paper notes that
// on resource vectors plain subtraction "accurately estimates the
// subtraction of the materialized front", replacing ⊖). Both time and work
// are floored at zero.
func (r ResVector) Minus(u ResVector) ResVector { return r.minus(NewVec(len(r.W)), u) }

func (r ResVector) minus(w Vec, u ResVector) ResVector {
	t := r.T - u.T
	if t < 0 {
		t = 0
	}
	return ResVector{T: t, W: sub(w, r.W, u.W)}
}

// Par is r1 || r2 with resource contention (§5.2.2):
//
//	t = max(t1, t2, max_i(w1ᵢ + w2ᵢ)),  w = w1 + w2
//
// Under no contention this degenerates to max(t1, t2); when both fragments
// hammer the same resource, the shared resource's summed work dominates and
// the IPE estimate degrades toward sequential execution — desideratum 1.
func (r ResVector) Par(u ResVector) ResVector { return r.par(NewVec(len(r.W)), u) }

func (r ResVector) par(w Vec, u ResVector) ResVector {
	return ResVector{T: parTime(r, u), W: add(w, r.W, u.W)}
}

// parTime is the t of r || u, computed without building its work vector.
func parTime(r, u ResVector) Time {
	t := r.T
	if u.T > t {
		t = u.T
	}
	m := 0.0
	for i := range r.W {
		if x := r.W[i] + u.W[i]; x > m {
			m = x
		}
	}
	if m > t {
		t = m
	}
	return t
}

// ScaleTime stretches only the response time by factor f ≥ 1, leaving work
// unchanged — how the δ(k) pipeline penalty is applied.
func (r ResVector) ScaleTime(f float64) ResVector {
	return ResVector{T: r.T * f, W: r.W}
}

// Delta computes the δ(k) synchronization penalty of §5.2.2 for pipelining
// fragments with residual usages p and c:
//
//	δ(k) = 1 + k·(t′ − max(t1,t2)) / (t1 + t2 − max(t1,t2))
//
// where t′ is the contention-aware parallel time. δ interpolates between 1
// (no contention: pipelining is free) and 1+k (full contention: the pipeline
// pays for having been set up when no parallelism was available). When a
// side is empty the denominator vanishes and δ is 1.
func Delta(k float64, p, c ResVector) float64 {
	if k == 0 {
		return 1
	}
	t1, t2 := p.T, c.T
	max := t1
	if t2 > max {
		max = t2
	}
	denom := t1 + t2 - max
	if denom <= 0 {
		return 1
	}
	d := 1 + k*(parTime(p, c)-max)/denom
	if d < 1 {
		return 1
	}
	return d
}

// ResDescriptor is the §5.2 resource descriptor (r⃗f, r⃗l): resource usage
// until the first tuple and until the last tuple.
type ResDescriptor struct {
	First ResVector // r⃗f
	Last  ResVector // r⃗l
}

// String renders "first=(...) last=(...)".
func (d ResDescriptor) String() string {
	return fmt.Sprintf("first=%s last=%s", d.First, d.Last)
}

// RT is the response-time estimate of the descriptor: the last-tuple time.
func (d ResDescriptor) RT() Time { return d.Last.T }

// Work is the total-work estimate: the summed last-tuple work vector, i.e.
// the traditional optimization metric of §3.
func (d ResDescriptor) Work() float64 { return d.Last.W.Sum() }

// Clone copies d into one slab of 2L floats that shares nothing with d: how a
// descriptor priced in a Scratch is kept.
func (d ResDescriptor) Clone() ResDescriptor {
	l := len(d.First.W)
	w := append(append(make(Vec, 0, 2*l), d.First.W...), d.Last.W...)
	return ResDescriptor{First: RV(d.First.T, w[:l:l]), Last: RV(d.Last.T, w[l:])}
}

// Sync models a materialized subtree: first-tuple usage becomes last-tuple
// usage.
func (d ResDescriptor) Sync() ResDescriptor {
	return ResDescriptor{First: d.Last, Last: d.Last}
}

// Seq composes descriptors sequentially, component-wise.
func (d ResDescriptor) Seq(u ResDescriptor) ResDescriptor { return d.seq(nil, u) }

func (d ResDescriptor) seq(s *Scratch, u ResDescriptor) ResDescriptor {
	l := len(d.First.W)
	return ResDescriptor{First: d.First.seq(s.vec(l), u.First), Last: d.Last.seq(s.vec(l), u.Last)}
}

// Pipe is the pipeline composition on resource descriptors with the δ(k)
// penalty (§5.2.2):
//
//	r⃗f = p⃗f ; c⃗f
//	r⃗l = p⃗f ; c⃗f ; δ(k) × ((p⃗l − p⃗f) || (c⃗l − c⃗f))
func (p ResDescriptor) Pipe(c ResDescriptor, k float64) ResDescriptor { return p.pipe(nil, c, k) }

func (p ResDescriptor) pipe(s *Scratch, c ResDescriptor, k float64) ResDescriptor {
	l := len(p.First.W)
	first := p.First.seq(s.vec(l), c.First)
	pres := p.Last.minus(s.vec(l), p.First)
	cres := c.Last.minus(s.vec(l), c.First)
	par := pres.par(s.vec(l), cres)
	par = par.ScaleTime(Delta(k, pres, cres))
	return ResDescriptor{First: first, Last: first.seq(s.vec(l), par)}
}

// TreeDesc is tree(L, R, root) on resource descriptors, mirroring §5.1's
// rule: the materialized frontiers run in parallel, the residuals pipeline,
// and the result pipes into the root.
func TreeDesc(l, r, root ResDescriptor, k float64) ResDescriptor {
	return treeDesc(nil, l, r, root, k)
}

func treeDesc(s *Scratch, l, r, root ResDescriptor, k float64) ResDescriptor {
	dim := len(root.Last.W)
	front := l.First.par(s.vec(dim), r.First)
	t1 := ResDescriptor{First: front, Last: front}
	zero := ResVector{W: s.vec(dim)}
	lres := ResDescriptor{First: zero, Last: l.Last.minus(s.vec(dim), l.First)}
	rres := ResDescriptor{First: zero, Last: r.Last.minus(s.vec(dim), r.First)}
	return t1.seq(s, lres.pipe(s, rres, k)).pipe(s, root, k)
}
