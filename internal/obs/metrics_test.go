package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWriteFamilies(t *testing.T) {
	var hits atomic.Int64
	hits.Add(7)
	byKind := NewLabelCounter("kind", "a", "b")
	byKind.Add("b", 2)
	byKind.Add("nope", 5) // not a constructed value: ignored
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	var b strings.Builder
	WriteFamilies(&b, []Family{
		Counter("x_hits_total", "Hits.", hits.Load),
		Gauge("x_depth", "Depth.", func() int { return 3 }),
		byKind.Family("x_kinds_total", "By kind."),
		{Name: "x_seconds_total", Help: "Per link.", Type: "counter", Collect: func(s *Samples) {
			s.Float(0.25, "link", `h"1`, "direction", "sent")
		}},
		HistogramFamily("x_latency", "Latency.", h),
	})
	want := `# HELP x_hits_total Hits.
# TYPE x_hits_total counter
x_hits_total 7
# HELP x_depth Depth.
# TYPE x_depth gauge
x_depth 3
# HELP x_kinds_total By kind.
# TYPE x_kinds_total counter
x_kinds_total{kind="a"} 0
x_kinds_total{kind="b"} 2
# HELP x_seconds_total Per link.
# TYPE x_seconds_total counter
x_seconds_total{link="h\"1",direction="sent"} 0.25
# HELP x_latency Latency.
# TYPE x_latency histogram
x_latency_bucket{le="1"} 1
x_latency_bucket{le="+Inf"} 1
x_latency_sum 0.5
x_latency_count 1
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	if byKind.Load("b") != 2 || byKind.Load("a") != 0 || byKind.Load("nope") != 0 {
		t.Errorf("Load: a=%d b=%d nope=%d", byKind.Load("a"), byKind.Load("b"), byKind.Load("nope"))
	}
}

// TestLabelCounterAddAllocatesNothing pins the request-path contract: Add is
// a scan over the value list and one atomic add — known value, unknown value
// and the empty string (the common "not cancelled" case) alike.
func TestLabelCounterAddAllocatesNothing(t *testing.T) {
	c := NewLabelCounter("reason", "client", "deadline", "shutdown")
	reasons := []string{"shutdown", "", "nope"}
	if n := testing.AllocsPerRun(1000, func() {
		for _, r := range reasons {
			c.Add(r, 1)
		}
	}); n != 0 {
		t.Errorf("LabelCounter.Add allocates %.1f times per run, want 0", n)
	}
}

func TestLabelCounterConcurrentAdd(t *testing.T) {
	c := NewLabelCounter("k", "a", "b")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add("a", 1)
				c.Add("b", 2)
			}
		}()
	}
	wg.Wait()
	if c.Load("a") != 4000 || c.Load("b") != 8000 {
		t.Errorf("a=%d b=%d, want 4000/8000", c.Load("a"), c.Load("b"))
	}
}
