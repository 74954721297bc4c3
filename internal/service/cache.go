package service

import (
	"bytes"
	"container/list"
	"encoding/json"
	"sync"

	"paropt/internal/core"
	"paropt/internal/search"
)

// cacheEntry is one plan-cache value: the optimization session pinned to
// the canonical query instance the cover set was computed for, plus the
// reusable cover set. Materialization must go through entry.opt (not a
// per-request optimizer) because the frontier's plan nodes index relations
// in that query instance's declaration order. cover.Stats is the search's
// record, so trace-requesting explains are answered on cache hits too.
type cacheEntry struct {
	opt   *core.Optimizer
	cover *core.CoverSet

	// answers memoizes the rendered answer per chosen cover member. The key
	// is a frontier member or the baseline, so the map holds at most
	// len(cover.Frontier)+1 values however many distinct bounds clients
	// send, every bound selecting one member shares its value, and the memo
	// is invalidated with the entry (sweeper swap, purge, eviction).
	mu      sync.Mutex
	answers map[*search.Candidate]*renderedPlan
}

// renderedPlan is everything a response says about one chosen cover member,
// kept as bytes: the answer is a pure function of the member, so it is
// derived once and served by reference. Nothing that derivation walked — the
// core.Plan, its operator trees and descriptors, the un-nested plan JSON — is
// retained: peak RSS follows what the memo holds live (EXPERIMENTS §HB1).
type renderedPlan struct {
	// slab is the plan-dependent middle of an /optimize body exactly as it
	// appears on the wire, from the indentation before "planSignature"
	// through the closing brace of "plan". Read-only and exact-size
	// (cap == len): responses alias it, so nothing may append to or write
	// through it.
	slab []byte
	// planOff is where the "plan" value starts: slab[planOff:] is the same
	// JSON value ExplainJSON produced, indented one level deeper.
	planOff int
	// sig is the plan signature unescaped, as the request record and
	// in-process callers want it (slab holds its JSON-quoted form).
	sig               string
	summary, baseline PlanSummary
}

// planJSON is the "plan" value: a sub-slice of the slab whose capacity is
// clamped, so an append by an in-process caller reallocates instead of
// writing past it.
func (r *renderedPlan) planJSON() json.RawMessage {
	return r.slab[r.planOff:len(r.slab):len(r.slab)]
}

// slabFields is the slab's content: the OptimizeResponse fields that depend
// only on the chosen member, in that struct's order and under its tags, so
// the generic encoder lays them out exactly as it does inside the full
// response.
type slabFields struct {
	PlanSignature string          `json:"planSignature"`
	Summary       PlanSummary     `json:"summary"`
	Baseline      *PlanSummary    `json:"baseline,omitempty"`
	Plan          json.RawMessage `json:"plan"`
}

var slabPlanKey = []byte("\n  \"plan\": ")

// rendered returns the answer for cover member c, deriving it on first use:
// materialize c and the baseline, render the plan, encode the middle of the
// response, keep the bytes. Concurrent first users of one member wait for
// one derivation.
func (e *cacheEntry) rendered(c *search.Candidate) (*renderedPlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r := e.answers[c]; r != nil {
		return r, nil
	}
	plan, err := e.opt.Materialize(e.cover, c)
	if err != nil {
		return nil, err
	}
	planJSON, err := e.opt.ExplainJSON(plan)
	if err != nil {
		return nil, err
	}
	r := &renderedPlan{
		sig:      plan.Tree.String(),
		summary:  PlanSummary{ResponseTime: plan.RT(), Work: plan.Work()},
		baseline: PlanSummary{ResponseTime: plan.Baseline.RT(), Work: plan.Baseline.Work()},
	}
	obj, err := json.MarshalIndent(slabFields{r.sig, r.summary, &r.baseline, planJSON}, "", "  ")
	if err != nil {
		return nil, err
	}
	mid := obj[len("{\n") : len(obj)-len("\n}")]
	r.slab = make([]byte, len(mid))
	copy(r.slab, mid)
	// Top-level keys are the only lines indented by exactly two spaces and a
	// JSON string cannot hold a raw newline, so the match is the field.
	r.planOff = bytes.Index(r.slab, slabPlanKey) + len(slabPlanKey)
	if e.answers == nil {
		e.answers = make(map[*search.Candidate]*renderedPlan)
	}
	e.answers[c] = r
	return r, nil
}

// lru is a mutex-guarded, size-bounded LRU map from string keys — the one
// implementation under the plan cache, the text cache and the analyze data.
// Get and getBytes on a hit allocate nothing.
type lru[V any] struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // of *lruItem[V]; front = most recently used
	items   map[string]*list.Element
	onEvict func() // optional; called once per capacity eviction, under mu
}

type lruItem[V any] struct {
	key string
	val V
}

func (c *lru[V]) init(capacity int, onEvict func()) {
	c.cap, c.onEvict = capacity, onEvict
	c.ll = list.New()
	c.items = make(map[string]*list.Element)
}

// Get returns the value and refreshes its recency.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// getBytes is Get for a key held in a byte slice, which the lookup does not
// copy.
func (c *lru[V]) getBytes(key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put inserts or refreshes a value, evicting the least-recently-used one
// when the map overflows.
func (c *lru[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruItem[V]).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// Len is the resident entry count.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// PurgeWhere drops every entry whose key satisfies pred and returns how many
// were dropped. Dropped entries do not count as evictions.
func (c *lru[V]) PurgeWhere(pred func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*lruItem[V]).key; pred(key) {
			c.ll.Remove(el)
			delete(c.items, key)
			n++
		}
		el = next
	}
	return n
}
