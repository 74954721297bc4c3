package obs

import (
	"strings"
	"testing"
)

func TestHistogramZeroValueDefaults(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(0.0009)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.09)
	}
	if h.Count() != 110 {
		t.Fatalf("count = %d", h.Count())
	}
	var b strings.Builder
	h.WritePrometheus(&b, "x", "")
	for _, want := range []string{`x_bucket{le="0.0005"} 0`, `x_bucket{le="0.001"} 100`, `x_bucket{le="0.05"} 100`, `x_bucket{le="0.1"} 110`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("zero-value histogram should use the default latency buckets; missing %q in:\n%s", want, b.String())
		}
	}
}

func TestHistogramCustomBucketsAndExposition(t *testing.T) {
	h := NewHistogram(RelErrorBuckets)
	h.Observe(0.3)  // le=0.5
	h.Observe(0.02) // le=0.025
	h.Observe(42)   // +Inf
	var b strings.Builder
	h.WritePrometheus(&b, "x_err", "")
	out := b.String()
	for _, want := range []string{
		`x_err_bucket{le="0.025"} 1`,
		`x_err_bucket{le="0.5"} 2`,
		`x_err_bucket{le="10"} 2`,
		`x_err_bucket{le="+Inf"} 3`,
		`x_err_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// Labeled form places extra labels before le and on sum/count.
	var lb strings.Builder
	h.WritePrometheus(&lb, "x_err", `phase="search"`)
	lout := lb.String()
	for _, want := range []string{
		`x_err_bucket{phase="search",le="+Inf"} 3`,
		`x_err_sum{phase="search"}`,
		`x_err_count{phase="search"} 3`,
	} {
		if !strings.Contains(lout, want) {
			t.Errorf("missing %q in:\n%s", want, lout)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	if s := h.Sum(); s < 1.99 || s > 2.01 {
		t.Errorf("sum = %g, want ~2", s)
	}
}
