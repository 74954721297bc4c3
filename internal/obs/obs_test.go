package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestTraceTreeAndJSON(t *testing.T) {
	tr := NewTracer(8)
	trace, root := tr.Start("request")
	if trace == nil || root == nil {
		t.Fatal("Start returned nil trace or span")
	}
	parse := root.Child("parse")
	parse.SetAttr("relations", 6)
	parse.End()
	search := root.Child("search")
	layer := search.Child("layer-2")
	layer.End()
	search.MarkFirst()
	search.Err(context.DeadlineExceeded)
	search.End()
	root.End()

	j := trace.JSON()
	if j.ID != trace.ID() || j.ID == "" {
		t.Fatalf("trace ID mismatch: %q vs %q", j.ID, trace.ID())
	}
	if len(j.Root.Children) != 2 {
		t.Fatalf("root should have 2 children, got %d", len(j.Root.Children))
	}
	p, s := j.Root.Children[0], j.Root.Children[1]
	if p.Name != "parse" || p.Attrs["relations"] != "6" {
		t.Errorf("parse span wrong: %+v", p)
	}
	if s.Name != "search" || s.Error == "" || s.FirstMicros == nil {
		t.Errorf("search span should carry error and first-output: %+v", s)
	}
	if len(s.Children) != 1 || s.Children[0].Name != "layer-2" {
		t.Errorf("search children wrong: %+v", s.Children)
	}
	if j.Root.EndMicros < 0 || j.Root.DurMicros < 0 {
		t.Errorf("ended root should have non-negative end/duration: %+v", j.Root)
	}

	if got := tr.Get(trace.ID()); got != trace {
		t.Error("Get should return the registered trace")
	}
	if got := tr.Get("nope"); got != nil {
		t.Error("Get of unknown ID should be nil")
	}
}

func TestSpansClosedOutOfOrder(t *testing.T) {
	tr := NewTracer(1)
	trace, root := tr.Start("request")
	child := root.Child("slow-worker")
	grand := child.Child("inner")
	// Parent ends first (e.g. a request timing out while the search worker
	// keeps running); children end later, then again redundantly.
	root.End()
	rootEnd := trace.JSON().Root.EndMicros
	time.Sleep(2 * time.Millisecond)
	grand.End()
	child.End()
	child.End() // idempotent
	root.End()  // idempotent: the first End wins

	j := trace.JSON()
	if j.Root.EndMicros != rootEnd {
		t.Errorf("re-End moved the root end: %d vs %d", j.Root.EndMicros, rootEnd)
	}
	c := j.Root.Children[0]
	if c.EndMicros < j.Root.EndMicros {
		t.Errorf("child ended after parent should keep its later timestamp: child=%d root=%d", c.EndMicros, j.Root.EndMicros)
	}
	if len(c.Children) != 1 || c.Children[0].EndMicros < 0 {
		t.Errorf("grandchild should be closed: %+v", c.Children)
	}
}

func TestSpanOnCancelledContext(t *testing.T) {
	tr := NewTracer(4)
	_, root := tr.Start("request")
	ctx, cancel := context.WithCancel(ContextWithSpan(context.Background(), root))
	cancel() // spans must not care about context liveness
	ctx2, s := StartSpan(ctx, "after-cancel")
	if s == nil {
		t.Fatal("StartSpan on a cancelled context should still create a span")
	}
	if SpanFrom(ctx2) != s {
		t.Error("returned context should carry the child span")
	}
	s.SetAttr("ok", true)
	s.End()
	if s.Duration() < 0 {
		t.Error("span on cancelled context should measure a duration")
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	trace, span := tr.Start("x")
	if trace != nil || span != nil {
		t.Fatal("nil tracer should return nils")
	}
	// Every method must be callable on nils.
	tr.Get("x")
	tr.Traces()
	tr.Keep(span)
	if tr.Len() != 0 {
		t.Error("nil tracer length should be 0")
	}
	trace.ID()
	trace.Root()
	trace.JSON()
	span.Child("c")
	span.End()
	span.MarkFirst()
	span.SetAttr("k", 1)
	span.SetTimes(time.Now(), time.Time{}, time.Now())
	span.Err(context.Canceled)
	span.Duration()
}

// TestSpanDisabledZeroAlloc is the nil-tracer fast path acceptance: with no
// span in the context, StartSpan and SpanFrom must not allocate.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, s := StartSpan(ctx, "noop")
		if s != nil || ctx2 != ctx {
			t.Fatal("disabled path should pass the context through")
		}
		s.MarkFirst()
		s.SetAttr("k", "v")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v times per op, want 0", allocs)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	t1, s1 := tr.Start("a")
	s1.End()
	t2, _ := tr.Start("b")
	t3, _ := tr.Start("c")
	if tr.Len() != 2 {
		t.Fatalf("ring should cap at 2, got %d", tr.Len())
	}
	if tr.Get(t1.ID()) != nil {
		t.Error("oldest trace should be evicted")
	}
	traces := tr.Traces()
	if len(traces) != 2 || traces[0] != t3 || traces[1] != t2 {
		t.Errorf("Traces should be newest-first: %v (want [%s %s])", traces, t3.ID(), t2.ID())
	}
	if t1.ID() == t2.ID() || t2.ID() == t3.ID() {
		t.Error("trace IDs must be distinct")
	}
}

// TestTracerKeepOutlivesRing: a pinned trace stays retrievable and listed,
// once and in sequence order, after the ring has evicted it.
func TestTracerKeepOutlivesRing(t *testing.T) {
	tr := NewTracer(2)
	kept, root := tr.Start("rare")
	tr.Keep(root.Child("plan-change"))
	if got := tr.Traces(); len(got) != 1 || got[0] != kept {
		t.Fatalf("a pinned trace still in the ring should be listed once, got %d", len(got))
	}
	var last *Trace
	for i := 0; i < 5; i++ {
		last, _ = tr.Start("common")
	}
	if tr.Get(kept.ID()) != kept {
		t.Fatal("pinned trace should outlive ring eviction")
	}
	got := tr.Traces()
	if len(got) != 3 || got[0] != last || got[2] != kept || tr.Len() != 3 {
		t.Errorf("want the ring's 2 traces then the pinned one, got %d traces", len(got))
	}
	if tr.Get(tr.prefix+"2") != nil {
		t.Error("an evicted, unpinned trace should be gone")
	}
}

func TestConcurrentSpanMutation(t *testing.T) {
	tr := NewTracer(1)
	trace, root := tr.Start("request")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer close2(done)
			s := root.Child("worker")
			s.SetAttr("i", i)
			s.MarkFirst()
			s.End()
		}(i)
	}
	for i := 0; i < 4; i++ {
		trace.JSON() // render concurrently with mutation
		<-done
	}
	root.End()
	if got := len(trace.JSON().Root.Children); got != 4 {
		t.Fatalf("want 4 children, got %d", got)
	}
}

func close2(ch chan struct{}) { ch <- struct{}{} }

// TestTracerKeepConcurrent pins traces from several goroutines while others
// start traces and read the listing, for the race detector.
func TestTracerKeepConcurrent(t *testing.T) {
	tr := NewTracer(4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				trace, root := tr.Start("request")
				if j%5 == 0 {
					tr.Keep(root.Child("plan-change"))
				}
				root.End()
				tr.Get(trace.ID())
				tr.Traces()
			}
		}()
	}
	wg.Wait()
	// 40 pinned traces, and the ring's 4 newest, which may be among them.
	if got := tr.Len(); got < 40 || got > 44 {
		t.Errorf("want the 40 pinned traces plus the ring's 4, got %d", got)
	}
}

// TestSpanErrKeepsABoundedMessage: a span keeps a short error message whole
// and a long one as a valid-UTF-8 prefix of at most errMsgMax bytes plus the
// message's length, so a retained trace cannot pin a request-sized message.
func TestSpanErrKeepsABoundedMessage(t *testing.T) {
	tr := NewTracer(4)
	trace, root := tr.Start("request")
	root.Err(errors.New("short"))
	if got := trace.JSON().Root.Error; got != "short" {
		t.Fatalf("short message kept as %q", got)
	}
	long := "bad token " + strings.Repeat("é", 1<<19) // 1 MiB of 2-byte runes after an odd prefix
	root.Err(errors.New(long))
	got := trace.JSON().Root.Error
	if len(got) > errMsgMax+32 || !utf8.ValidString(got) {
		t.Fatalf("long message kept as %d bytes (valid UTF-8 %t), want at most %d", len(got), utf8.ValidString(got), errMsgMax+32)
	}
	if cut := strings.LastIndex(got, "… ("); cut < 0 || !strings.HasPrefix(long, got[:cut]) || !strings.HasSuffix(got, "(1048586 bytes)") {
		t.Fatalf("long message kept as %q…, want its prefix and length", got[:64])
	}
}
