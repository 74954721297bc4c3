package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"paropt/internal/engine"
	"paropt/internal/obs/accuracy"
	"paropt/internal/obs/workload"
	"paropt/internal/plan"
)

// Cancellation reasons, used as the {reason} label of the cancelled-queries
// counter and as the request record's Cancelled field.
const (
	CancelClient   = "client"   // DELETE /debug/queries/{id}
	CancelDeadline = "deadline" // request deadline (Config.RequestTimeout)
	CancelShutdown = "shutdown" // daemon drain timeout at shutdown
)

// QueryCancelledError is the cause installed on a query's context when it is
// cancelled through the registry; it propagates out of the engine's
// checkpoints as the request error. HTTP maps client cancellations to 499.
type QueryCancelledError struct{ Reason string }

func (e *QueryCancelledError) Error() string {
	return "service: query cancelled (" + e.Reason + ")"
}

// progressDriftThreshold is how far (in fractions of the predicted
// timeline) measured progress may fall behind the model's schedule before
// the query is flagged as drifting.
const progressDriftThreshold = 0.15

// inflightQuery is one live entry of the registry: identity and phase from
// the serving path, plus — once execution starts — the live engine counters
// and the plan's predicted (tf, tl) timeline to map them against.
type inflightQuery struct {
	id    int64
	kind  string
	start time.Time

	// cancelCause cancels the request context with a typed cause;
	// stopTimeout releases the deadline timer. Both set at admission.
	cancelCause context.CancelCauseFunc
	stopTimeout context.CancelFunc

	mu          sync.Mutex
	query       string
	fingerprint string
	catalog     string
	phase       string // parse → search → select → execute
	distributed bool
	reason      string // cancellation reason, "" while running
	stats       *engine.ExecStats
	timeline    []accuracy.OpTimeline
	predRT      float64
}

func (q *inflightQuery) setPhase(p string) {
	q.mu.Lock()
	q.phase = p
	q.mu.Unlock()
}

func (q *inflightQuery) note(fp, catalog string) {
	q.mu.Lock()
	q.fingerprint, q.catalog = fp, catalog
	q.mu.Unlock()
}

// attachExec arms live progress: the pre-registered stats collector the
// executor will update and the predicted per-operator timeline.
func (q *inflightQuery) attachExec(stats *engine.ExecStats, tl []accuracy.OpTimeline, predRT float64) {
	q.mu.Lock()
	q.stats, q.timeline, q.predRT = stats, tl, predRT
	q.mu.Unlock()
}

// cancel installs the typed cause and cancels the context. The first reason
// wins; later cancels are no-ops.
func (q *inflightQuery) cancel(reason string) {
	q.mu.Lock()
	if q.reason != "" {
		q.mu.Unlock()
		return
	}
	q.reason = reason
	q.mu.Unlock()
	q.cancelCause(&QueryCancelledError{Reason: reason})
}

// OpProgressSnapshot is one operator's live progress joined against its
// predicted cardinality (/debug/queries).
type OpProgressSnapshot struct {
	Label    string  `json:"label"`
	Rows     int64   `json:"rows"`
	PredRows int64   `json:"predRows"`
	Percent  float64 `json:"percent"`
	Done     bool    `json:"done,omitempty"`
	FirstMs  float64 `json:"firstMs,omitempty"`
	LastMs   float64 `json:"lastMs,omitempty"`
}

// ProgressSnapshot maps the engine's lock-free live counters onto the
// plan's predicted (tf, tl) timeline: per-operator percent complete, a
// model-predicted wall time calibrated from the operators observed so far,
// and the remaining-time estimate derived from it.
type ProgressSnapshot struct {
	// Percent is overall fraction complete in [0,1]: predicted-row-weighted
	// mean of per-operator progress.
	Percent float64 `json:"percent"`
	// Calibrated reports whether at least one operator measurement anchored
	// the model units to seconds (the live analogue of the accuracy report's
	// Scale).
	Calibrated bool `json:"calibrated,omitempty"`
	// PredictedWallMs is the calibrated end-to-end prediction; 0 before
	// calibration.
	PredictedWallMs float64 `json:"predictedWallMs,omitempty"`
	// ETAMs estimates remaining milliseconds (model-predicted when
	// calibrated, rows-extrapolated otherwise); -1 when unknown.
	ETAMs float64 `json:"etaMs"`
	// Drift is set when measured progress has fallen more than 15 points of
	// the predicted timeline behind the model's schedule.
	Drift bool                 `json:"drift,omitempty"`
	Ops   []OpProgressSnapshot `json:"ops,omitempty"`
}

// QuerySnapshot is one in-flight query's public state (/debug/queries).
type QuerySnapshot struct {
	ID          int64             `json:"id"`
	Kind        string            `json:"kind"`
	Query       string            `json:"query"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Catalog     string            `json:"catalog,omitempty"`
	Phase       string            `json:"phase"`
	Distributed bool              `json:"distributed,omitempty"`
	Start       time.Time         `json:"start"`
	ElapsedMs   float64           `json:"elapsedMs"`
	Cancelled   string            `json:"cancelled,omitempty"`
	Progress    *ProgressSnapshot `json:"progress,omitempty"`
}

// snapshot samples the query's state without stalling its execution: the
// engine counters are atomics, so holding q.mu never blocks an operator.
func (q *inflightQuery) snapshot(now time.Time) QuerySnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	snap := QuerySnapshot{
		ID:          q.id,
		Kind:        q.kind,
		Query:       q.query,
		Fingerprint: q.fingerprint,
		Catalog:     q.catalog,
		Phase:       q.phase,
		Distributed: q.distributed,
		Start:       q.start,
		ElapsedMs:   float64(now.Sub(q.start)) / 1e6,
		Cancelled:   q.reason,
	}
	if q.stats != nil && len(q.timeline) > 0 {
		snap.Progress = liveProgress(q.stats, q.timeline, q.predRT, now)
	}
	return snap
}

// liveProgress joins one sample of the engine's live counters against the
// predicted timeline. Calibration anchors model units to seconds by
// position: every finished operator pins the query at least at its
// predicted last-tuple time, every running one interpolates between its
// (tf, tl) pair by row progress, and the furthest such point is where the
// query currently sits on the model's own timeline. Seconds per model unit
// is then simply elapsed over position — re-derived at every sample, so the
// estimate keeps correcting itself as slower downstream operators come into
// view (a frozen early ratio would lock in the speed of the cheap scans).
// Progress itself is row-based: rows produced over predicted cardinality,
// clamped, weighted by predicted rows.
func liveProgress(stats *engine.ExecStats, tl []accuracy.OpTimeline, predRT float64, now time.Time) *ProgressSnapshot {
	prog := stats.Progress()
	if len(prog) == 0 {
		return &ProgressSnapshot{ETAMs: -1}
	}
	started := stats.Started()
	var elapsed time.Duration
	if !started.IsZero() {
		elapsed = now.Sub(started)
	}
	byNode := make(map[*plan.Node]engine.NodeProgress, len(prog))
	for _, p := range prog {
		byNode[p.Node] = p
	}
	ps := &ProgressSnapshot{ETAMs: -1}
	var wsum, wdone float64
	var pos float64 // current position on the model timeline, in model units
	for _, t := range tl {
		p, ok := byNode[t.Node]
		if !ok {
			continue
		}
		op := OpProgressSnapshot{
			Label:    p.Label,
			Rows:     p.Rows,
			PredRows: t.PredRows,
			Done:     p.Last > 0,
			FirstMs:  float64(p.First) / 1e6,
			LastMs:   float64(p.Last) / 1e6,
		}
		switch {
		case op.Done:
			op.Percent = 1
		case t.PredRows > 0:
			op.Percent = float64(p.Rows) / float64(t.PredRows)
			if op.Percent > 1 {
				op.Percent = 1
			}
		}
		if w := float64(t.PredRows); w > 0 {
			wsum += w
			wdone += w * op.Percent
		}
		switch {
		case op.Done:
			if t.PredLast > pos {
				pos = t.PredLast
			}
		case p.First > 0:
			if at := t.PredFirst + op.Percent*(t.PredLast-t.PredFirst); at > pos {
				pos = at
			}
		}
		ps.Ops = append(ps.Ops, op)
	}
	if wsum > 0 {
		ps.Percent = wdone / wsum
	}
	if pos > 0 && predRT > 0 && elapsed > 0 {
		if pos > predRT {
			pos = predRT
		}
		scale := elapsed.Seconds() / pos
		ps.Calibrated = true
		ps.PredictedWallMs = predRT * scale * 1e3
		eta := ps.PredictedWallMs - float64(elapsed)/1e6
		if eta < 0 {
			eta = 0
		}
		ps.ETAMs = eta
		// Drift: where the model says we are on its own timeline vs where
		// row progress says we are.
		ps.Drift = pos/predRT-ps.Percent > progressDriftThreshold
	} else if ps.Percent > 0 && elapsed > 0 {
		// Uncalibrated fallback: extrapolate rows linearly.
		ps.ETAMs = float64(elapsed) / 1e6 * (1 - ps.Percent) / ps.Percent
	}
	return ps
}

// inflightRegistry tracks every request currently inside the service. IDs
// are dense and monotonic for the daemon's lifetime, so operators can
// reference them across /debug/queries calls and DELETEs.
type inflightRegistry struct {
	mu      sync.Mutex
	nextID  int64
	queries map[int64]*inflightQuery
}

func newInflightRegistry() *inflightRegistry {
	return &inflightRegistry{queries: make(map[int64]*inflightQuery)}
}

// add admits one request. cancelCause/stopTimeout release the request's
// context when the query finishes or is cancelled.
func (r *inflightRegistry) add(kind, query string, distributed bool, cancelCause context.CancelCauseFunc, stopTimeout context.CancelFunc) *inflightQuery {
	q := &inflightQuery{
		kind:        kind,
		query:       query,
		distributed: distributed,
		start:       time.Now(),
		phase:       "parse",
		cancelCause: cancelCause,
		stopTimeout: stopTimeout,
	}
	r.mu.Lock()
	r.nextID++
	q.id = r.nextID
	r.queries[q.id] = q
	r.mu.Unlock()
	return q
}

// finish retires a query: removes it, releases its context, and returns the
// registry's half of the request's record — who it was, the last phase it
// entered and the cancellation reason ("" for a normal finish). Deadline
// expiry counts as a cancellation even though nobody called cancel
// explicitly.
func (r *inflightRegistry) finish(q *inflightQuery, err error) workload.Record {
	r.mu.Lock()
	delete(r.queries, q.id)
	r.mu.Unlock()
	q.cancelCause(nil)
	q.stopTimeout()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.reason == "" && errors.Is(err, context.DeadlineExceeded) {
		q.reason = CancelDeadline
	}
	return workload.Record{
		Kind:        q.kind,
		QueryID:     q.id,
		Query:       q.query,
		Fingerprint: q.fingerprint,
		Catalog:     q.catalog,
		Phase:       q.phase,
		Cancelled:   q.reason,
	}
}

func (r *inflightRegistry) get(id int64) *inflightQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries[id]
}

func (r *inflightRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// snapshots returns every in-flight query's state, oldest first.
func (r *inflightRegistry) snapshots() []QuerySnapshot {
	r.mu.Lock()
	qs := make([]*inflightQuery, 0, len(r.queries))
	for _, q := range r.queries {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	now := time.Now()
	out := make([]QuerySnapshot, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.snapshot(now))
	}
	return out
}

// cancel cancels one query by ID; false when no such query is in flight.
func (r *inflightRegistry) cancel(id int64, reason string) bool {
	q := r.get(id)
	if q == nil {
		return false
	}
	q.cancel(reason)
	return true
}

// cancelAll cancels every in-flight query and returns how many.
func (r *inflightRegistry) cancelAll(reason string) int {
	r.mu.Lock()
	qs := make([]*inflightQuery, 0, len(r.queries))
	for _, q := range r.queries {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	for _, q := range qs {
		q.cancel(reason)
	}
	return len(qs)
}

// driftCount is how many in-flight queries currently report progress drift.
func (r *inflightRegistry) driftCount() int {
	n := 0
	for _, s := range r.snapshots() {
		if s.Progress != nil && s.Progress.Drift {
			n++
		}
	}
	return n
}
