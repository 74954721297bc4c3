// Package calibrate fits the cost model's parameters to the measured
// behavior of the execution engine on the current machine, so the abstract
// time units of the §5 calculus become commensurate with wall-clock time.
// The paper assumes a calibrated work model as given (as System R did);
// this package is the missing procedure: it times the engine's physical
// micro-operations (tuple scan, sort comparison, hash build, hash probe) on
// generated data and solves for the per-unit CPU costs. I/O costs cannot be
// measured in an in-memory engine; they keep the conventional
// page-I/O-to-tuple-CPU ratio of the defaults, rescaled to the measured
// CPU unit.
package calibrate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/cost"
	"paropt/internal/storage"
)

// Sample is one measured micro-operation.
type Sample struct {
	// Name identifies the micro-op.
	Name string
	// UnitNanos is nanoseconds per model unit (tuple, comparison, probe).
	UnitNanos float64
	// N is the operation count measured.
	N int64
}

// Report is the calibration outcome.
type Report struct {
	// Params is the fitted parameter set: CPU costs are measured, I/O and
	// network costs keep the default ratios rescaled to the measured
	// tuple-CPU unit.
	Params cost.Params
	// Samples are the raw measurements, by name.
	Samples map[string]Sample
	// UnitNanos is how many wall-clock nanoseconds one abstract time unit
	// of the fitted Params corresponds to.
	UnitNanos float64
}

// Run measures micro-operations over scale tuples (≥ 1000 recommended) and
// fits Params. Timing-based: results vary across machines, which is the
// point.
func Run(scale int64, seed int64) (*Report, error) {
	if scale < 1000 {
		scale = 1000
	}
	cat := catalog.New()
	rel, err := cat.AddRelation(catalog.Relation{
		Name: "cal",
		Columns: []catalog.Column{
			{Name: "k", NDV: scale / 4, Width: 8},
			{Name: "v", NDV: scale, Width: 8},
		},
		Card:  scale,
		Pages: scale / 100,
	})
	if err != nil {
		return nil, err
	}
	keys := storage.Generate(rel, seed).Columns()[0]

	rep := &Report{Samples: map[string]Sample{}}

	// Tuple scan: touch every row once.
	scanNs := measure(func() {
		var sink int64
		for _, k := range keys {
			sink += k
		}
		sinkhole = sink
	})
	rep.add("scan-tuple", scanNs/float64(scale), scale)

	// Sort: n log2 n comparisons.
	sortNs := measure(func() {
		cp := append([]int64(nil), keys...)
		sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	})
	comparisons := float64(scale) * math.Log2(float64(scale))
	rep.add("sort-compare", sortNs/comparisons, int64(comparisons))

	// Hash build.
	var built map[int64][]int
	buildNs := measure(func() {
		built = make(map[int64][]int, scale)
		for i, k := range keys {
			built[k] = append(built[k], i)
		}
	})
	rep.add("hash-build", buildNs/float64(scale), scale)

	// Hash probe.
	probeNs := measure(func() {
		var sink int
		for _, k := range keys {
			sink += len(built[k])
		}
		sinkhole = int64(sink)
	})
	rep.add("hash-probe", probeNs/float64(scale), scale)

	// Fit: keep the default parameter *ratios* for unmeasurable quantities
	// and rescale so one abstract unit == the default CPUTuple's measured
	// time. Measured CPU costs replace the defaults directly.
	def := cost.DefaultParams()
	unit := rep.Samples["scan-tuple"].UnitNanos / def.CPUTuple
	if unit <= 0 {
		return nil, fmt.Errorf("calibrate: degenerate measurement")
	}
	p := def
	p.CPUTuple = rep.Samples["scan-tuple"].UnitNanos / unit
	p.CPUCompare = rep.Samples["sort-compare"].UnitNanos / unit
	p.HashBuild = rep.Samples["hash-build"].UnitNanos / unit
	p.HashProbe = rep.Samples["hash-probe"].UnitNanos / unit
	p.IndexProbeCPU = 2 * p.HashProbe // B-tree descent ≈ a couple of probes
	rep.Params = p
	rep.UnitNanos = unit
	return rep, nil
}

// sinkhole defeats dead-code elimination in measured loops.
var sinkhole int64

// measure times fn once, with a repeat loop for very fast bodies.
func measure(fn func()) float64 {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= 2*time.Millisecond || reps >= 1<<16 {
			return float64(elapsed.Nanoseconds()) / float64(reps)
		}
		reps *= 4
	}
}

func (r *Report) add(name string, unitNanos float64, n int64) {
	r.Samples[name] = Sample{Name: name, UnitNanos: unitNanos, N: n}
}

// String renders the report for CLI output.
func (r *Report) String() string {
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("calibration: 1 model unit = %.1f ns\n", r.UnitNanos)
	for _, n := range names {
		s := r.Samples[n]
		out += fmt.Sprintf("  %-14s %8.2f ns/unit  (n=%d)\n", s.Name, s.UnitNanos, s.N)
	}
	out += fmt.Sprintf("fitted params: cpuTuple=%.4g cpuCompare=%.4g hashBuild=%.4g hashProbe=%.4g\n",
		r.Params.CPUTuple, r.Params.CPUCompare, r.Params.HashBuild, r.Params.HashProbe)
	return out
}
