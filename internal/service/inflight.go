package service

import (
	"sort"
	"sync"
	"time"

	"paropt/internal/engine"
	"paropt/internal/obs"
	"paropt/internal/obs/accuracy"
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

// phase names a row of phases: the stages a served request passes through.
type phase uint8

const (
	phaseParse phase = iota
	phaseSearch
	phaseSelect
	phaseRender
	phaseExecute
	phaseDone // enter(phaseDone) closes the open phase and opens none
)

// phases is what entering each phase means: name labels its
// paroptd_phase_seconds histogram and its span; live is the phase
// /debug/queries and the request record report (rendering the chosen member
// still reports as select); span says whether the request opens a span for it
// — the search span is the flight leader's, opened where the search runs.
var phases = [phaseDone]struct {
	name, live string
	span       bool
}{
	phaseParse:   {"parse", "parse", true},
	phaseSearch:  {"search", "search", false},
	phaseSelect:  {"select", "select", true},
	phaseRender:  {"render", "select", true},
	phaseExecute: {"execute", "execute", true},
}

// enter is a phase change, the one way a request moves on: it closes the open
// phase — samples its histogram, ends its span — and, unless next is
// phaseDone, opens next, returning next's span (nil without one). Only the
// request's own goroutine calls it.
func (p *servedPlan) enter(next phase) *obs.Span {
	now := time.Now()
	if !p.since.IsZero() {
		p.met.Phase[p.phase].Observe(now.Sub(p.since).Seconds())
		p.span.End()
		p.since, p.span = time.Time{}, nil
	}
	if next == phaseDone {
		return nil
	}
	p.mu.Lock()
	p.phase = next
	p.mu.Unlock()
	p.since = now
	if phases[next].span {
		p.span = p.root.Child(phases[next].name)
	}
	return p.span
}

// cancel installs the typed cause and cancels the context. The first reason
// wins; later cancels are no-ops.
func (p *servedPlan) cancel(reason string) {
	p.mu.Lock()
	if p.reason != "" {
		p.mu.Unlock()
		return
	}
	p.reason = reason
	p.mu.Unlock()
	p.cancelCause(&QueryCancelledError{Reason: reason})
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

// snapshot samples the request's state without stalling its execution: the
// engine counters are atomics, so holding p.mu never blocks an operator.
func (p *servedPlan) snapshot(now time.Time) QuerySnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := QuerySnapshot{
		ID:          p.id,
		Kind:        p.kind,
		Query:       p.req.Query,
		Phase:       phases[p.phase].live,
		Distributed: p.req.Distributed,
		Start:       p.start,
		ElapsedMs:   float64(now.Sub(p.start)) / 1e6,
		Cancelled:   p.reason,
	}
	if p.phase > phaseParse { // set before the search phase was entered
		snap.Fingerprint, snap.Catalog = p.fp, p.version
	}
	if p.stats != nil && len(p.timeline) > 0 {
		snap.Progress = liveProgress(p.stats, p.timeline, p.predRT, now)
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
	byNode := stats.ByNode()
	if len(byNode) == 0 {
		return &ProgressSnapshot{ETAMs: -1}
	}
	started := stats.Started()
	var elapsed time.Duration
	if !started.IsZero() {
		elapsed = now.Sub(started)
	}
	ps := &ProgressSnapshot{ETAMs: -1}
	var wsum, wdone float64
	var pos float64 // current position on the model timeline, in model units
	for _, t := range tl {
		st, ok := byNode[t.Node]
		if !ok {
			continue
		}
		// The node's live counters are atomics the execution path updates
		// lock-free. The close marker is read first: it is stored last, so a
		// closed node's rows are final.
		last := st.LiveLast()
		first, rows := st.LiveFirst(), st.LiveRows()
		op := OpProgressSnapshot{
			Label:    st.Label,
			Rows:     rows,
			PredRows: t.PredRows,
			Done:     last > 0,
			FirstMs:  float64(first) / 1e6,
			LastMs:   float64(last) / 1e6,
		}
		switch {
		case op.Done:
			op.Percent = 1
		case t.PredRows > 0:
			op.Percent = float64(rows) / float64(t.PredRows)
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
		case first > 0:
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
	queries map[int64]*servedPlan
}

func newInflightRegistry() *inflightRegistry {
	return &inflightRegistry{queries: make(map[int64]*servedPlan)}
}

// add admits one request under the next ID.
func (r *inflightRegistry) add(p *servedPlan) {
	r.mu.Lock()
	r.nextID++
	p.id = r.nextID
	r.queries[p.id] = p
	r.mu.Unlock()
}

// finish retires a request: removes it and releases its context.
func (r *inflightRegistry) finish(p *servedPlan) {
	r.mu.Lock()
	delete(r.queries, p.id)
	r.mu.Unlock()
	p.cancelCause(nil)
	p.stopTimeout()
}

func (r *inflightRegistry) get(id int64) *servedPlan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries[id]
}

func (r *inflightRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// list returns every in-flight request, oldest first.
func (r *inflightRegistry) list() []*servedPlan {
	r.mu.Lock()
	ps := make([]*servedPlan, 0, len(r.queries))
	for _, p := range r.queries {
		ps = append(ps, p)
	}
	r.mu.Unlock()
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	return ps
}

// snapshots returns every in-flight request's state, oldest first.
func (r *inflightRegistry) snapshots() []QuerySnapshot {
	ps := r.list()
	now := time.Now()
	out := make([]QuerySnapshot, len(ps))
	for i, p := range ps {
		out[i] = p.snapshot(now)
	}
	return out
}

// cancelAll cancels every in-flight request and returns how many.
func (r *inflightRegistry) cancelAll(reason string) int {
	ps := r.list()
	for _, p := range ps {
		p.cancel(reason)
	}
	return len(ps)
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
