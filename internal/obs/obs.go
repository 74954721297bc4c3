// Package obs is the observability substrate of the repository: a
// lightweight span tracer threaded through context.Context, the two
// primitives every bounded telemetry log in the repository is built on — a
// fixed-capacity Ring of recent values and a never-blocking JSONL Sink — and
// general-purpose bucketed histograms. It deliberately depends only on the
// standard library so every other package (service, engine, search adapters)
// can import it without cycles.
//
// The tracer mirrors the paper's own vocabulary: a span records not just
// (start, end) but also the *first-output* timestamp, so a finished span is
// exactly a measured two-part descriptor (tf, tl) — the runtime counterpart
// of the §5 cost calculus. Joining these actuals against the model's
// predictions is the job of the obs/accuracy subpackage.
//
// Everything is nil-safe: a nil *Tracer, *Trace or *Span turns every method
// into a no-op, so instrumented code paths need no conditionals and the
// disabled tracer allocates nothing (see TestSpanDisabledZeroAlloc).
package obs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Tracer creates traces and retains the most recent ones in a Ring for the
// /debug/trace endpoints. A trace's ID is the tracer's prefix plus the
// trace's ring sequence number in base 36, so lookup by ID is Ring.At. Keep
// pins a trace in a second ring so a rare one outlives the stream of ordinary
// traces that would evict it. Safe for concurrent use.
type Tracer struct {
	prefix string
	ring   *Ring[*Trace]
	kept   *Ring[*Trace]
}

// keepCapacity is how many pinned traces Keep retains.
const keepCapacity = 256

// NewTracer builds a tracer retaining up to capacity traces (default 256
// when capacity <= 0), plus up to keepCapacity pinned ones.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	t := &Tracer{prefix: strconv.FormatInt(time.Now().UnixNano()&0xffffff, 36) + "-"}
	t.ring = NewRing(capacity, func(tr **Trace, seq uint64) {
		(*tr).seq = seq
		(*tr).id = t.prefix + strconv.FormatUint(seq, 36)
	})
	t.kept = NewRing[*Trace](keepCapacity, nil)
	return t
}

// Start opens a new trace with a root span of the given name and registers
// it in the ring (evicting the oldest when full). In-flight traces are
// visible to Get. Nil-safe: a nil tracer returns (nil, nil).
func (t *Tracer) Start(name string) (*Trace, *Span) {
	if t == nil {
		return nil, nil
	}
	tr := &Trace{start: time.Now()}
	tr.root = &Span{tr: tr, name: name, start: tr.start}
	t.ring.Add(tr)
	return tr, tr.root
}

// Keep pins the trace s belongs to, so it stays retrievable after the ring
// has evicted it, until keepCapacity later pins displace it. Call it at most
// once per trace: a trace pinned twice is listed twice once the ring evicts
// it. Nil-safe.
func (t *Tracer) Keep(s *Span) {
	if t == nil || s == nil {
		return
	}
	t.kept.Add(s.tr)
}

// Get returns a retained trace by ID, or nil. The trace may still be in
// flight; render it with Trace.JSON, which locks consistently.
func (t *Tracer) Get(id string) *Trace {
	if t == nil {
		return nil
	}
	digits, ok := strings.CutPrefix(id, t.prefix)
	if !ok {
		return nil
	}
	seq, err := strconv.ParseUint(digits, 36, 64)
	if err != nil {
		return nil
	}
	if tr, ok := t.ring.At(seq); ok {
		return tr
	}
	for _, tr := range t.kept.Snapshot(0) {
		if tr.seq == seq {
			return tr
		}
	}
	return nil
}

// Traces lists every retained trace once, newest first: the ring's, then the
// pinned ones it has evicted.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	out := t.ring.Snapshot(0)
	oldest := uint64(math.MaxUint64)
	if len(out) > 0 {
		oldest = out[len(out)-1].seq
	}
	for _, tr := range t.kept.Snapshot(0) {
		if tr.seq < oldest { // the ring holds every sequence from oldest on
			out = append(out, tr)
		}
	}
	return out
}

// Len is the number of retained traces.
func (t *Tracer) Len() int { return len(t.Traces()) }

// Trace is one request's span tree. All span mutation goes through the
// trace mutex, so spans may be created and ended from different goroutines
// (e.g. a search running on a worker-pool goroutine).
type Trace struct {
	id    string
	seq   uint64
	start time.Time
	mu    sync.Mutex
	root  *Span
}

// ID is the trace's request ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root is the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Walk visits every span in the trace depth-first (parents before
// children), passing each span's name and attributes. The whole walk runs
// under the trace mutex, so fn must not touch the trace. Nil-safe.
func (t *Trace) Walk(fn func(name string, attrs []Attr)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var visit func(s *Span)
	visit = func(s *Span) {
		fn(s.name, s.attrs)
		for _, c := range s.children {
			visit(c)
		}
	}
	visit(t.root)
}

// Attr is one span attribute (stringified at set time, so rendering a trace
// never chases live pointers).
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation in a trace: (start, first-output, end) plus
// attributes and children. The zero first/end timestamps mean "not yet".
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	first    time.Time // first-output: the measured tf
	end      time.Time // the measured tl
	attrs    []Attr
	children []*Span
	errMsg   string
}

// Child opens a sub-span. Nil-safe: a nil span returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// TraceID is the ID of the trace the span belongs to — how work done under
// a span (a search, a plan swap) stamps its own records with the request
// that caused it. Nil-safe: a nil span has no trace.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// End closes the span. Idempotent: the first End wins, so spans closed out
// of order (a child after its parent) keep their own timestamps and the
// trace still renders coherently.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// MarkFirst records the first-output timestamp (the actual tf). Only the
// first call sticks.
func (s *Span) MarkFirst() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.first.IsZero() {
		s.first = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetTimes overrides the span's timestamps — used to graft externally
// measured intervals (engine operator timings) into a trace after the fact.
// A zero first means "no first-output recorded".
func (s *Span) SetTimes(start, first, end time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.start, s.first, s.end = start, first, end
	s.tr.mu.Unlock()
}

// SetAttr attaches a key/value attribute, stringifying the value now.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	var v string
	switch x := value.(type) {
	case string:
		v = x
	case fmt.Stringer:
		v = x.String()
	default:
		v = fmt.Sprint(x)
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.tr.mu.Unlock()
}

// errMsgMax caps the error message a span keeps. A message can quote a whole
// request (a parse error quoting a 1 MiB token), and every retained trace
// would pin it.
const errMsgMax = 1 << 10

// Err records an error on the span (last one wins). Nil errors are ignored.
// A message over errMsgMax bytes is kept as its first errMsgMax bytes, cut at
// a rune boundary, and its length.
func (s *Span) Err(err error) {
	if s == nil || err == nil {
		return
	}
	msg := err.Error()
	if len(msg) > errMsgMax {
		cut := errMsgMax
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut] + "… (" + strconv.Itoa(len(msg)) + " bytes)"
	}
	s.tr.mu.Lock()
	s.errMsg = msg
	s.tr.mu.Unlock()
}

// Duration is end − start, or time-to-now for an open span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Context threading.

type ctxKey struct{}

// ContextWithSpan attaches a span to the context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom extracts the current span, or nil. The nil path performs no
// allocation, which is what keeps disabled tracing free.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's span and returns a context
// carrying it. With no span in the context both return values pass through
// ((ctx, nil)) without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.Child(name)
	return ContextWithSpan(ctx, c), c
}

// JSON rendering for the /debug/trace endpoint.

// SpanJSON is the wire form of one span. Timestamps are microseconds
// relative to the trace start; FirstMicros is omitted when the span never
// produced output, EndMicros is -1 while the span is still open.
type SpanJSON struct {
	Name        string            `json:"name"`
	StartMicros int64             `json:"startMicros"`
	FirstMicros *int64            `json:"firstOutputMicros,omitempty"`
	EndMicros   int64             `json:"endMicros"`
	DurMicros   int64             `json:"durationMicros"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Error       string            `json:"error,omitempty"`
	Children    []*SpanJSON       `json:"children,omitempty"`
}

// TraceJSON is the wire form of a whole trace.
type TraceJSON struct {
	ID        string    `json:"id"`
	StartUnix int64     `json:"startUnixMicros"`
	Root      *SpanJSON `json:"root"`
}

// JSON renders the trace tree. Safe to call on an in-flight trace.
func (t *Trace) JSON() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceJSON{
		ID:        t.id,
		StartUnix: t.start.UnixMicro(),
		Root:      t.root.json(t.start),
	}
}

// json renders one span; caller holds the trace mutex.
func (s *Span) json(t0 time.Time) *SpanJSON {
	j := &SpanJSON{
		Name:        s.name,
		StartMicros: s.start.Sub(t0).Microseconds(),
		EndMicros:   -1,
		Error:       s.errMsg,
	}
	if !s.first.IsZero() {
		f := s.first.Sub(t0).Microseconds()
		j.FirstMicros = &f
	}
	if !s.end.IsZero() {
		j.EndMicros = s.end.Sub(t0).Microseconds()
		j.DurMicros = s.end.Sub(s.start).Microseconds()
	} else {
		j.DurMicros = time.Since(s.start).Microseconds()
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.json(t0))
	}
	return j
}
