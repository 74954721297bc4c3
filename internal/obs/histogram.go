package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the histogram upper bounds in seconds used for
// request and phase latency, chosen around the serving profile: cache hits
// in the tens of microseconds, full searches from hundreds of microseconds
// (small chains) to seconds (large cliques).
var DefaultLatencyBuckets = []float64{
	0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RelErrorBuckets are upper bounds for cost-model relative error |e|: a
// prediction off by 1% lands in the first bucket, one off by 10× in the
// last finite one.
var RelErrorBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic counters. The zero
// value is ready to use and adopts DefaultLatencyBuckets on first touch;
// NewHistogram picks custom bucket bounds.
type Histogram struct {
	initOnce sync.Once
	buckets  []float64
	counts   []atomic.Int64 // len(buckets)+1; last bucket is +Inf
	count    atomic.Int64
	sumNano  atomic.Int64 // sum scaled by 1e9 to stay integral under atomics
}

// NewHistogram builds a histogram over the given (ascending) upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	h := &Histogram{}
	h.initOnce.Do(func() { h.init(buckets) })
	return h
}

func (h *Histogram) init(buckets []float64) {
	h.buckets = buckets
	h.counts = make([]atomic.Int64, len(buckets)+1)
}

// ensure lazily adopts the default buckets for zero-value histograms.
func (h *Histogram) ensure() {
	h.initOnce.Do(func() { h.init(DefaultLatencyBuckets) })
}

// EnsureBuckets adopts the given bucket bounds if the histogram has not been
// touched yet — the way an embedded (non-pointer) histogram field opts out
// of the default latency buckets. No-op after the first Observe.
func (h *Histogram) EnsureBuckets(buckets []float64) {
	h.initOnce.Do(func() { h.init(buckets) })
}

// Observe records one value in the bucket containing it.
func (h *Histogram) Observe(v float64) {
	h.ensure()
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(v * 1e9))
}

// Count is the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum is the total of all observed values.
func (h *Histogram) Sum() float64 { return float64(h.sumNano.Load()) / 1e9 }

// WritePrometheus renders the histogram in Prometheus text exposition
// format under the given metric name, with optional extra labels rendered
// verbatim inside the braces (e.g. `phase="parse"`). HELP/TYPE headers are
// the caller's job (they must appear once per family, and one family may
// span several labeled histograms).
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) {
	h.ensure()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels+sep, ub, cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels+sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	}
}
