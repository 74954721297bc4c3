package obs

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// Family is one metric family of a Prometheus text exposition, declared once:
// the name, HELP text and TYPE ("counter", "gauge" or "histogram") a scrape
// prints, and the function that samples the family's source at scrape time.
// A daemon's /metrics is a []Family rendered by WriteFamilies.
type Family struct {
	Name, Help, Type string
	Collect          func(*Samples)
}

// Samples writes one family's sample lines. Label arguments are key, value
// pairs, rendered in the order given as key="value".
type Samples struct {
	w    io.Writer
	name string
}

// Int writes one integer-valued sample.
func (s *Samples) Int(v int64, kv ...string) {
	fmt.Fprintf(s.w, "%s%s %d\n", s.name, braced(kv), v)
}

// Float writes one float-valued sample.
func (s *Samples) Float(v float64, kv ...string) {
	fmt.Fprintf(s.w, "%s%s %g\n", s.name, braced(kv), v)
}

// Histogram writes h's bucket, sum and count series.
func (s *Samples) Histogram(h *Histogram, kv ...string) {
	h.WritePrometheus(s.w, s.name, labels(kv))
}

func labels(kv []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

func braced(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	return "{" + labels(kv) + "}"
}

// WriteFamilies renders the table as Prometheus text exposition format
// 0.0.4, families in table order. It is the only writer of # HELP and # TYPE
// lines in the repository.
func WriteFamilies(w io.Writer, fams []Family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		f.Collect(&Samples{w: w, name: f.Name})
	}
}

type integer interface{ ~int | ~int64 }

func scalar[T integer](name, help, typ string, v func() T) Family {
	return Family{Name: name, Help: help, Type: typ, Collect: func(s *Samples) { s.Int(int64(v())) }}
}

// Counter is an unlabeled counter family sampled from v (an atomic's Load
// method value, typically).
func Counter[T integer](name, help string, v func() T) Family {
	return scalar(name, help, "counter", v)
}

// Gauge is an unlabeled gauge family sampled from v.
func Gauge[T integer](name, help string, v func() T) Family {
	return scalar(name, help, "gauge", v)
}

// HistogramFamily is an unlabeled histogram family over h.
func HistogramFamily(name, help string, h *Histogram) Family {
	return Family{Name: name, Help: help, Type: "histogram", Collect: func(s *Samples) { s.Histogram(h) }}
}

// LabelCounter is a counter family with one label whose values are fixed at
// construction: one atomic per value. Add finds the value's slot by scanning
// the short value list — no map, lock or allocation — and ignores a value the
// counter was not built with.
type LabelCounter struct {
	label  string
	values []string
	n      []atomic.Int64
}

// NewLabelCounter builds a counter over label's given values; samples render
// in this order.
func NewLabelCounter(label string, values ...string) *LabelCounter {
	return &LabelCounter{label: label, values: values, n: make([]atomic.Int64, len(values))}
}

// slot is value's counter, nil for a value the counter was not built with.
func (c *LabelCounter) slot(value string) *atomic.Int64 {
	for i, v := range c.values {
		if v == value {
			return &c.n[i]
		}
	}
	return nil
}

// Add adds n to value's counter.
func (c *LabelCounter) Add(value string, n int64) {
	if s := c.slot(value); s != nil {
		s.Add(n)
	}
}

// Load reads value's counter (0 for an unknown value).
func (c *LabelCounter) Load(value string) int64 {
	if s := c.slot(value); s != nil {
		return s.Load()
	}
	return 0
}

// Family declares the counter's family: one sample per label value.
func (c *LabelCounter) Family(name, help string) Family {
	return Family{Name: name, Help: help, Type: "counter", Collect: func(s *Samples) {
		for i, v := range c.values {
			s.Int(c.n[i].Load(), c.label, v)
		}
	}}
}
