package exchange

import (
	"sync/atomic"
	"time"
)

// This file is the observability side of the wire protocol: the compact
// span tree and per-fragment measurements a worker ships back in a
// frameStats frame, plus the process-wide counters a worker exports on its
// own /metrics. Workers and coordinators have no clock agreement, so every
// timestamp in a RemoteSpan/FragmentStats is a nanosecond offset relative
// to the fragment's receipt at the worker; the coordinator anchors the tree
// at its own dispatch time when merging it into the request trace.

// RemoteSpan is one node of a worker-side span tree. Names are stable
// ("fragment", "scan-left", "scan-right", "join") so coordinators and smoke
// tests can find them after the merge.
type RemoteSpan struct {
	Name string `json:"name"`
	// StartNanos/EndNanos bound the span; FirstNanos is the first-output
	// mark (the measured tf of the paper's two-parameter descriptors), 0
	// when the span produced no output. All offsets from fragment receipt.
	StartNanos int64             `json:"start_nanos"`
	FirstNanos int64             `json:"first_nanos,omitempty"`
	EndNanos   int64             `json:"end_nanos"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*RemoteSpan     `json:"children,omitempty"`
}

// child appends and returns a new child span starting now (relative to t0).
func (s *RemoteSpan) child(name string, start int64) *RemoteSpan {
	c := &RemoteSpan{Name: name, StartNanos: start}
	s.Children = append(s.Children, c)
	return c
}

// FragmentStats is the frameStats payload: what one worker measured while
// running one fragment. It is sent once per attempt, immediately before
// frameEndResult or frameError. FirstNanos/LastNanos are the fragment's
// measured (tf, tl) — offsets from receipt to first and last result rows.
type FragmentStats struct {
	TraceID          string      `json:"trace_id,omitempty"`
	Worker           string      `json:"worker,omitempty"`
	Part             int         `json:"part"`
	Parts            int         `json:"parts"`
	Rows             int64       `json:"rows"`
	Batches          int64       `json:"batches"`
	FirstNanos       int64       `json:"first_nanos,omitempty"`
	LastNanos        int64       `json:"last_nanos,omitempty"`
	ResultStallNanos int64       `json:"result_stall_nanos,omitempty"`
	Error            string      `json:"error,omitempty"`
	Span             *RemoteSpan `json:"span,omitempty"`

	// Coordinator-side annotations, stamped on receipt — never on the wire.
	Addr           string    `json:"-"` // link the stats arrived on
	Dispatched     time.Time `json:"-"` // when the committed attempt was dispatched
	Retried        int       `json:"-"` // failed attempts before this one committed
	FallbackReason string    `json:"-"` // set on the stats of a coordinator fallback
}

// emitted accounts one result batch of rows rows handed on by the
// fragment's join at offset off: the first one marks the fragment's and the
// join span's tf.
func (fs *FragmentStats) emitted(join *RemoteSpan, off int64, rows int) {
	if fs.FirstNanos == 0 {
		fs.FirstNanos = off
		join.FirstNanos = off
	}
	fs.LastNanos = off
	fs.Rows += int64(rows)
	fs.Batches++
}

// StatsReporter is implemented by joins that collected worker-side
// FragmentStats (the Cluster transport's joins). The engine checks for it
// once a join's output is drained; Local joins don't implement it.
type StatsReporter interface {
	// FragmentStats returns the collected per-fragment stats, one entry per
	// committed dispatch attempt (retried attempts that failed are dropped;
	// coordinator fallbacks appear with Worker = "coordinator").
	FragmentStats() []*FragmentStats
}

// WorkerStats is a worker process's cumulative counters, shared across all
// fragment connections and exported by cmd/paroptw on /metrics and
// /healthz. All fields are safe for concurrent use; the zero value is ready.
type WorkerStats struct {
	FragmentsServed  atomic.Int64 // fragments finished cleanly
	FragmentsFailed  atomic.Int64 // fragments that ended in a frame error
	ShippedScans     atomic.Int64 // scan sides sourced from the local store
	RowsEmitted      atomic.Int64 // result rows streamed back
	BatchesEmitted   atomic.Int64 // result batches streamed back
	ResultStallNanos atomic.Int64 // ns blocked on the result credit window
	ActiveFragments  atomic.Int64 // fragments currently executing (gauge)
	StagedBytes      atomic.Int64 // live bytes of shipped-scan partitions in-flight fragments reference (views of the shard cache, not copies; gauge)
	Cancelled        atomic.Int64 // fragments abandoned on a coordinator cancel
}

// WorkerSnapshot is a point-in-time copy of WorkerStats for /healthz.
type WorkerSnapshot struct {
	FragmentsServed    int64   `json:"fragments_served"`
	FragmentsFailed    int64   `json:"fragments_failed"`
	ShippedScans       int64   `json:"shipped_scans"`
	RowsEmitted        int64   `json:"rows_emitted"`
	BatchesEmitted     int64   `json:"batches_emitted"`
	ResultStallSeconds float64 `json:"result_stall_seconds"`
	ActiveFragments    int64   `json:"active_fragments"`
	StagedBytes        int64   `json:"staged_bytes"`
	Cancelled          int64   `json:"cancelled"`
}

// Snapshot reads the counters (individually, not as a group).
func (s *WorkerStats) Snapshot() WorkerSnapshot {
	return WorkerSnapshot{
		FragmentsServed:    s.FragmentsServed.Load(),
		FragmentsFailed:    s.FragmentsFailed.Load(),
		ShippedScans:       s.ShippedScans.Load(),
		RowsEmitted:        s.RowsEmitted.Load(),
		BatchesEmitted:     s.BatchesEmitted.Load(),
		ResultStallSeconds: float64(s.ResultStallNanos.Load()) / 1e9,
		ActiveFragments:    s.ActiveFragments.Load(),
		StagedBytes:        s.StagedBytes.Load(),
		Cancelled:          s.Cancelled.Load(),
	}
}
