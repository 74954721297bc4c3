package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Replay turns a recorded query log into a regression harness: every
// successfully-served record is re-executed through an Executor (an
// in-process service or an HTTP daemon) and the replay's plan choice and
// latency are compared against what was recorded. Plan choices are
// deterministic for a fixed catalog and configuration, so any plan change
// is a signal — a statistics refresh, a code change, or a different daemon
// configuration.

// Outcome is one replayed request's result.
type Outcome struct {
	PlanSig       string
	ElapsedMicros int64
	Err           error
}

// Executor re-executes one recorded request.
type Executor func(Record) Outcome

// Delta compares one record against its replay.
type Delta struct {
	Index         int    `json:"index"`
	Fingerprint   string `json:"fingerprint"`
	Query         string `json:"query"`
	RecordedPlan  string `json:"recordedPlan"`
	ReplayedPlan  string `json:"replayedPlan"`
	PlanChanged   bool   `json:"planChanged"`
	RecordedMicro int64  `json:"recordedMicros"`
	ReplayedMicro int64  `json:"replayedMicros"`
	Error         string `json:"error,omitempty"`
}

// Report aggregates a whole replay.
type Report struct {
	Total       int `json:"total"`
	Skipped     int `json:"skipped"` // recorded failures, not replayed
	Errors      int `json:"errors"`  // replay-time failures
	PlanMatches int `json:"planMatches"`
	PlanChanges int `json:"planChanges"`
	// Latency sums and quantiles over the replayed (successful) requests.
	RecordedMeanMicros float64 `json:"recordedMeanMicros"`
	ReplayedMeanMicros float64 `json:"replayedMeanMicros"`
	RecordedP95Micros  float64 `json:"recordedP95Micros"`
	ReplayedP95Micros  float64 `json:"replayedP95Micros"`
	// Deltas lists plan changes and errors (always), plus every record when
	// Verbose was set on Replay.
	Deltas []Delta `json:"deltas,omitempty"`
}

// Replay re-executes recs through exec in recorded order. Records that
// failed when recorded (Error set) are skipped — they prove nothing about
// plan stability. With verbose set, every comparison is kept in Deltas;
// otherwise only plan changes and replay errors are.
func Replay(recs []Record, exec Executor, verbose bool) *Report {
	rep := &Report{Total: len(recs)}
	var recLat, playLat []float64
	for i, rec := range recs {
		if rec.Error != "" {
			rep.Skipped++
			continue
		}
		out := exec(rec)
		d := Delta{
			Index:         i,
			Fingerprint:   rec.Fingerprint,
			Query:         rec.Query,
			RecordedPlan:  rec.PlanSig,
			ReplayedPlan:  out.PlanSig,
			RecordedMicro: rec.ElapsedMicros,
			ReplayedMicro: out.ElapsedMicros,
		}
		if out.Err != nil {
			rep.Errors++
			d.Error = out.Err.Error()
			rep.Deltas = append(rep.Deltas, d)
			continue
		}
		recLat = append(recLat, float64(rec.ElapsedMicros))
		playLat = append(playLat, float64(out.ElapsedMicros))
		d.PlanChanged = rec.PlanSig != "" && out.PlanSig != rec.PlanSig
		if d.PlanChanged {
			rep.PlanChanges++
		} else {
			rep.PlanMatches++
		}
		if d.PlanChanged || verbose {
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	rep.RecordedMeanMicros, rep.RecordedP95Micros = meanP95(recLat)
	rep.ReplayedMeanMicros, rep.ReplayedP95Micros = meanP95(playLat)
	return rep
}

// meanP95 computes the mean and exact p95 of a finished sample (replay is
// offline, so no sketch is needed).
func meanP95(xs []float64) (mean, p95 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := (len(sorted)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return sum / float64(len(xs)), sorted[idx]
}

// Table renders the report as text. The exit-status contract for CLI use:
// PlanChanges > 0 or Errors > 0 is a regression.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d records (%d skipped, %d errors)\n",
		r.Total-r.Skipped, r.Skipped, r.Errors)
	fmt.Fprintf(&b, "plan matches: %d\nplan changes: %d\n", r.PlanMatches, r.PlanChanges)
	fmt.Fprintf(&b, "latency mean: recorded %.0f µs, replayed %.0f µs (%+.1f%%)\n",
		r.RecordedMeanMicros, r.ReplayedMeanMicros, pctDelta(r.RecordedMeanMicros, r.ReplayedMeanMicros))
	fmt.Fprintf(&b, "latency p95:  recorded %.0f µs, replayed %.0f µs (%+.1f%%)\n",
		r.RecordedP95Micros, r.ReplayedP95Micros, pctDelta(r.RecordedP95Micros, r.ReplayedP95Micros))
	for _, d := range r.Deltas {
		switch {
		case d.Error != "":
			fmt.Fprintf(&b, "  #%d %.12s ERROR %s\n", d.Index, d.Fingerprint, d.Error)
		case d.PlanChanged:
			fmt.Fprintf(&b, "  #%d %.12s PLAN CHANGED\n    recorded: %s\n    replayed: %s\n",
				d.Index, d.Fingerprint, d.RecordedPlan, d.ReplayedPlan)
		default:
			fmt.Fprintf(&b, "  #%d %.12s ok %d µs → %d µs\n",
				d.Index, d.Fingerprint, d.RecordedMicro, d.ReplayedMicro)
		}
	}
	return b.String()
}

func pctDelta(recorded, replayed float64) float64 {
	if recorded == 0 {
		return 0
	}
	return 100 * (replayed - recorded) / recorded
}
