package service

import (
	"sync/atomic"
	"time"

	"paropt/internal/obs"
	"paropt/internal/search"
)

// Search telemetry log: a bounded ring of recent DP searches with their
// per-layer breakdowns, served at /debug/search. One entry is recorded per
// search actually run (request misses and sweeper re-optimizations); cache
// hits bump the originating entry's hit counter instead, so the listing
// shows which searches are still earning their keep.

// SearchLogEntry describes one recorded search.
type SearchLogEntry struct {
	ID   int64     `json:"id"`
	Time time.Time `json:"time"`
	// TraceID is the trace of the request whose miss ran the search (empty
	// for sweeper searches and when tracing is off); /debug/trace/{id}
	// follows it back.
	TraceID string `json:"traceId,omitempty"`
	// Source is what triggered the search: "search" (request miss) or
	// "sweeper" (drift re-optimization).
	Source      string `json:"source"`
	Fingerprint string `json:"fingerprint"`
	Catalog     string `json:"catalog"`
	Relations   int    `json:"relations"`
	// FrontierSize is the root cover set's size; ElapsedMicros the search
	// wall time (baseline + partial-order DP).
	FrontierSize  int   `json:"frontierSize"`
	ElapsedMicros int64 `json:"elapsedMicros"`

	// Stats is the search's own record: its totals and per-layer telemetry
	// (cardinality order), inlined field by field.
	search.Stats
	// PeakBytesRetained is the largest per-layer retained-bytes estimate.
	PeakBytesRetained int64 `json:"peakBytesRetained"`

	// CacheHits counts requests served from this search's cached cover set
	// after it was computed (filled at snapshot time).
	CacheHits int64 `json:"cacheHits"`
	// Cached marks a snapshot entry whose trace/profile is being replayed
	// from cache rather than freshly computed (true iff CacheHits > 0).
	Cached bool `json:"cached"`
}

// searchLogRecord is the mutable stored form: the hit counter advances on
// every cache hit without taking the ring lock.
type searchLogRecord struct {
	entry SearchLogEntry
	hits  atomic.Int64
}

// searchLogCapacity is how many recent searches /debug/search retains.
const searchLogCapacity = 64

func newSearchLog() *obs.Ring[*searchLogRecord] {
	return obs.NewRing(searchLogCapacity, func(r **searchLogRecord, seq uint64) {
		(*r).entry.ID = int64(seq)
	})
}

// SearchLog returns the retained search-telemetry entries, newest first,
// with hit counts filled.
func (s *Service) SearchLog() []SearchLogEntry {
	recs := s.searchlog.Snapshot(0)
	out := make([]SearchLogEntry, len(recs))
	for i, r := range recs {
		out[i] = r.entry
		out[i].CacheHits = r.hits.Load()
		out[i].Cached = out[i].CacheHits > 0
	}
	return out
}
