package obs

import "sync"

// Ring is a fixed-capacity circular buffer of the most recent values, each
// identified by a dense sequence number (1, 2, 3, … in Add order) — the one
// bounded-retention primitive behind the trace store and its pinned traces.
// Add is O(1) and allocates nothing once constructed. Safe for concurrent
// use; a nil *Ring is disabled: Add is a no-op returning 0 and every reader
// reports empty.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	last  uint64 // sequence number of the newest value; 0 while empty
	stamp func(v *T, seq uint64)
}

// NewRing builds a ring retaining the last capacity values. stamp, when
// non-nil, runs on every Add against the stored value while the ring lock is
// still held, so a record can carry its own sequence number (an ID field, a
// trace ID) with no window in which a reader sees it unstamped.
func NewRing[T any](capacity int, stamp func(v *T, seq uint64)) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity), stamp: stamp}
}

// Add stores v, evicting the oldest value when full, and returns v's
// sequence number.
func (r *Ring[T]) Add(v T) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	slot := &r.buf[r.last%uint64(len(r.buf))]
	*slot = v
	if r.stamp != nil {
		r.stamp(slot, r.last) // in place: &v would escape through the func value
	}
	return r.last
}

// At returns the value Add numbered seq; false when it was never added or
// has been evicted.
func (r *Ring[T]) At(seq uint64) (v T, ok bool) {
	if r == nil {
		return v, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq == 0 || seq > r.last || r.last-seq >= uint64(len(r.buf)) {
		return v, false
	}
	return r.buf[seq%uint64(len(r.buf))], true
}

// Len is the number of values retained.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.last, uint64(len(r.buf))))
}

// Snapshot copies the retained values newest first — at most n of them when
// n > 0, all of them otherwise.
func (r *Ring[T]) Snapshot(n int) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have := int(min(r.last, uint64(len(r.buf)))); n <= 0 || n > have {
		n = have
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[(r.last-uint64(i))%uint64(len(r.buf))]
	}
	return out
}
