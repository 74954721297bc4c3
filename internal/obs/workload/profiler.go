// Package workload aggregates the serving layer's traffic into
// per-fingerprint profiles — the daemon's answer to "which query templates
// dominate, how fast are they, and whose cached plans have drifted from
// reality". It is distinct from internal/workload, which *generates*
// benchmark catalogs and queries; this package *measures* served ones.
//
// Three pieces compose:
//
//   - Profiler: a locked map from query fingerprint to Profile —
//     request/hit/miss/dedup/error counts, streaming latency quantiles (P²
//     sketches, constant space), the last selected plan signature, the
//     plan the template's last search chose (the "before" side of its next
//     plan swap), and EWMAs of the cost-model accuracy samples produced by
//     obs/accuracy (mean |relative error| of calibrated (tf, tl) predictions
//     and the worst row q-error). The q-error EWMA is the drift signal: when it exceeds a
//     threshold the cached cover set was computed from statistics that no
//     longer match measured reality, and the entry is a candidate for
//     background re-optimization.
//   - Record and Log (querylog.go): the one record a finished request
//     leaves, and its persistent append-only JSONL form (an obs.Sink) — the
//     raw material for offline analysis and replay.
//   - Replay (replay.go): re-executes a recorded workload and reports
//     plan-choice and latency deltas — the log turned regression harness.
//
// A nil *Log is an obs.Sink's no-op, so an unlogged daemon pays nothing for
// it; the profiler is always on.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// ewmaAlpha weights the newest accuracy sample; 0.3 makes the EWMA cross a
// 2× drift threshold after two to three consistent samples while a single
// outlier decays quickly.
const ewmaAlpha = 0.3

// A profile is marked drifted — a re-optimization candidate — once it has at
// least DriftMinSamples accuracy samples and its row q-error EWMA is at least
// DriftThreshold.
const (
	DriftThreshold  = 2.0
	DriftMinSamples = 2
)

// profilerCapacity sizes the live profiler: new fingerprints beyond it are
// counted as overflow and dropped.
const profilerCapacity = 4096

// Profile aggregates one fingerprint's traffic.
type Profile struct {
	mu          sync.Mutex
	fingerprint string
	query       string
	catalog     string
	planSig     string
	firstSeen   time.Time
	lastSeen    time.Time
	count       int64
	hits        int64
	misses      int64
	deduped     int64
	errors      int64
	lat         *LatencySketch
	// Accuracy EWMAs, fed by explain-analyze runs.
	ewmaRelErr float64
	ewmaQErr   float64
	accSamples int64
	// sweeps counts background re-optimizations of this template.
	sweeps int64
	// searched is the plan the template's last search chose.
	searched SearchedPlan
}

// SearchedPlan is the representative plan a template's last search chose
// and the inputs that search ran under: the "before" side of the template's
// next plan swap.
type SearchedPlan struct {
	Catalog   string // catalog version
	Placement string // placement fingerprint, empty without one
	Sig       string // join tree in functional notation
	RT, Work  float64
	Lines     []string // the indented tree rendering, one line per node
}

// ProfileSnapshot is a point-in-time copy of a Profile, safe to sort,
// serialize and render after the profiler has moved on.
type ProfileSnapshot struct {
	Fingerprint string  `json:"fingerprint"`
	Query       string  `json:"query"`
	Catalog     string  `json:"catalog"`
	PlanSig     string  `json:"planSignature"`
	Count       int64   `json:"count"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Deduped     int64   `json:"deduped,omitempty"`
	Errors      int64   `json:"errors,omitempty"`
	MeanMicros  float64 `json:"meanMicros"`
	P50Micros   float64 `json:"p50Micros"`
	P90Micros   float64 `json:"p90Micros"`
	P99Micros   float64 `json:"p99Micros"`
	MaxMicros   float64 `json:"maxMicros"`
	EWMARelErr  float64 `json:"ewmaRelErr,omitempty"`
	EWMAQErr    float64 `json:"ewmaQErr,omitempty"`
	AccSamples  int64   `json:"accuracySamples,omitempty"`
	Drifted     bool    `json:"drifted,omitempty"`
	Sweeps      int64   `json:"sweeps,omitempty"`
	FirstSeen   int64   `json:"firstSeenUnixMicros"`
	LastSeen    int64   `json:"lastSeenUnixMicros"`
}

// Profiler is the per-fingerprint store. Safe for concurrent use: the
// serving path takes the map lock to find a profile and that profile's own
// lock to update it.
type Profiler struct {
	mu       sync.Mutex
	m        map[string]*Profile
	capacity int
	overflow atomic.Int64
}

// NewProfiler builds the live profiler: 4096 profiles.
func NewProfiler() *Profiler { return newProfiler(profilerCapacity) }

func newProfiler(capacity int) *Profiler {
	return &Profiler{m: make(map[string]*Profile), capacity: capacity}
}

// profile returns (creating if capacity allows) the profile for fp; nil
// when the profiler is full.
func (p *Profiler) profile(fp string) *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.m[fp]
	if !ok {
		if len(p.m) >= p.capacity {
			return nil
		}
		pr = &Profile{fingerprint: fp, lat: NewLatencySketch(), firstSeen: time.Now()}
		p.m[fp] = pr
	}
	return pr
}

// Observe feeds one finished request. Records without a
// fingerprint are ignored (requests that failed before fingerprinting are
// the service's text cache's concern, not the profiler's). A failed request counts
// as an error and contributes no latency sample. A record that carries an
// analyze accuracy report (QErr or RelErr set: the report's worst row q-error
// and its mean |relative error| over calibrated (tf, tl) predictions) also
// feeds the drift EWMAs, which seed with the first sample.
func (p *Profiler) Observe(rec Record) {
	if rec.Fingerprint == "" {
		return
	}
	pr := p.profile(rec.Fingerprint)
	if pr == nil {
		p.overflow.Add(1)
		return
	}
	failed := rec.Error != ""
	pr.mu.Lock()
	pr.count++
	pr.lastSeen = time.Now()
	switch {
	case failed:
		pr.errors++
	case rec.Cache == "hit":
		pr.hits++
	default:
		pr.misses++
	}
	if rec.Deduped {
		pr.deduped++
	}
	if rec.Query != "" {
		pr.query = rec.Query
	}
	if rec.Catalog != "" {
		pr.catalog = rec.Catalog
	}
	if rec.PlanSig != "" {
		pr.planSig = rec.PlanSig
	}
	if !failed {
		pr.lat.Observe(float64(rec.ElapsedMicros) / 1e6)
	}
	if rec.QErr > 0 || rec.RelErr > 0 {
		if pr.accSamples == 0 {
			pr.ewmaRelErr, pr.ewmaQErr = rec.RelErr, rec.QErr
		} else {
			pr.ewmaRelErr = ewmaAlpha*rec.RelErr + (1-ewmaAlpha)*pr.ewmaRelErr
			pr.ewmaQErr = ewmaAlpha*rec.QErr + (1-ewmaAlpha)*pr.ewmaQErr
		}
		pr.accSamples++
	}
	pr.mu.Unlock()
}

// SwapPlan stores next as the plan fp's last search chose and returns the
// one it replaces; seen is false when there was none. A template the full
// profiler does not hold keeps no plan (its request counts as overflow when
// observed).
func (p *Profiler) SwapPlan(fp string, next SearchedPlan) (prev SearchedPlan, seen bool) {
	pr := p.profile(fp)
	if pr == nil {
		return prev, false
	}
	pr.mu.Lock()
	prev, pr.searched = pr.searched, next
	pr.mu.Unlock()
	return prev, prev.Sig != ""
}

// MarkSwept records a drift sweep of the template and resets its accuracy
// EWMAs — the old samples measured a plan that no longer serves, so the drift
// mark must be re-earned against the new one.
func (p *Profiler) MarkSwept(fp string) {
	p.mu.Lock()
	pr := p.m[fp]
	p.mu.Unlock()
	if pr == nil {
		return
	}
	pr.mu.Lock()
	pr.sweeps++
	pr.accSamples = 0
	pr.ewmaRelErr, pr.ewmaQErr = 0, 0
	pr.mu.Unlock()
}

// snapshot copies the profile under its own lock.
func (pr *Profile) snapshot() ProfileSnapshot {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	s := ProfileSnapshot{
		Fingerprint: pr.fingerprint,
		Query:       pr.query,
		Catalog:     pr.catalog,
		PlanSig:     pr.planSig,
		Count:       pr.count,
		Hits:        pr.hits,
		Misses:      pr.misses,
		Deduped:     pr.deduped,
		Errors:      pr.errors,
		MeanMicros:  pr.lat.Mean() * 1e6,
		P50Micros:   pr.lat.Quantile(0.5) * 1e6,
		P90Micros:   pr.lat.Quantile(0.9) * 1e6,
		P99Micros:   pr.lat.Quantile(0.99) * 1e6,
		MaxMicros:   pr.lat.Max() * 1e6,
		EWMARelErr:  pr.ewmaRelErr,
		EWMAQErr:    pr.ewmaQErr,
		AccSamples:  pr.accSamples,
		Sweeps:      pr.sweeps,
		FirstSeen:   pr.firstSeen.UnixMicro(),
		LastSeen:    pr.lastSeen.UnixMicro(),
	}
	s.Drifted = pr.accSamples >= DriftMinSamples && pr.ewmaQErr >= DriftThreshold
	return s
}

// Snapshot copies every profile. The profiles are copied outside the map
// lock, so a snapshot never holds up the serving path's lookups.
func (p *Profiler) Snapshot() []ProfileSnapshot {
	p.mu.Lock()
	profiles := make([]*Profile, 0, len(p.m))
	for _, pr := range p.m {
		profiles = append(profiles, pr)
	}
	p.mu.Unlock()
	var out []ProfileSnapshot
	for _, pr := range profiles {
		out = append(out, pr.snapshot())
	}
	return out
}

// Drifted returns snapshots of the profiles currently marked drifted,
// ordered by traffic (hottest first) — the drift sweep's work queue.
func (p *Profiler) Drifted() []ProfileSnapshot {
	var out []ProfileSnapshot
	for _, s := range p.Snapshot() {
		if s.Drifted {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Len is the number of profiles tracked.
func (p *Profiler) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// Overflow counts new fingerprints dropped because the profiler was full.
func (p *Profiler) Overflow() int64 {
	return p.overflow.Load()
}

// DriftedCount is the number of profiles currently marked drifted.
func (p *Profiler) DriftedCount() int {
	return len(p.Drifted())
}

// SortBy orders snapshots for top-K reporting: "traffic" by request count,
// "latency" by p99, "drift" by the q-error EWMA — always descending, ties
// broken by fingerprint for deterministic output.
func SortBy(snaps []ProfileSnapshot, by string) {
	less := func(i, j int) bool { return snaps[i].Count > snaps[j].Count }
	switch by {
	case "latency":
		less = func(i, j int) bool { return snaps[i].P99Micros > snaps[j].P99Micros }
	case "drift":
		less = func(i, j int) bool { return snaps[i].EWMAQErr > snaps[j].EWMAQErr }
	}
	sort.Slice(snaps, func(i, j int) bool {
		if less(i, j) != less(j, i) {
			return less(i, j)
		}
		return snaps[i].Fingerprint < snaps[j].Fingerprint
	})
}

// FormatTable renders snapshots as a fixed-width text table (the
// /debug/workload?format=text and `paropt workload` rendering).
func FormatTable(snaps []ProfileSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %6s %6s %6s %10s %10s %10s %8s %8s %5s  %s\n",
		"fingerprint", "count", "hits", "miss", "err",
		"p50(µs)", "p90(µs)", "p99(µs)", "qerr", "relerr", "drift", "plan")
	for _, s := range snaps {
		fp := s.Fingerprint
		if len(fp) > 12 {
			fp = fp[:12]
		}
		drift := ""
		if s.Drifted {
			drift = "DRIFT"
		}
		fmt.Fprintf(&b, "%-12s %8d %6d %6d %6d %10.0f %10.0f %10.0f %8.2f %8.2f %5s  %s\n",
			fp, s.Count, s.Hits, s.Misses, s.Errors,
			s.P50Micros, s.P90Micros, s.P99Micros, s.EWMAQErr, s.EWMARelErr, drift, Elide(s.PlanSig, 60))
	}
	return b.String()
}

// Elide shortens s to at most n runes (n > 3) for a text table's last
// column, ending it in "..." when it cuts. It cuts between runes, so the
// result stays valid UTF-8: identifiers may be any Unicode letter.
func Elide(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	return string([]rune(s)[:n-3]) + "..."
}
