package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// ledger is one checked-in set of results (results/BENCH_<pr>.json): every
// metric of every workload with the per-pass samples behind its median.
type ledger struct {
	Commit    string                    `json:"commit"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Passes    int                       `json:"passes"`
	NProc     int                       `json:"nproc"`
	Go        string                    `json:"go"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

type workloadEntry struct {
	// Requests is the number of timed requests of each untraced pass, Failed
	// how many of them all failed the oracle.
	Requests []int `json:"requests"`
	Failed   int   `json:"failed"`
	// EndToEnd comes from the untraced passes only, PerLayer from the one
	// traced run.
	EndToEnd map[string]stat   `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
}

// errorRate is failed / attempted over all passes. It is not a median: one
// bad pass of three must show.
func (w *workloadEntry) errorRate() float64 {
	attempted := 0
	for _, n := range w.Requests {
		attempted += n
	}
	if attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(attempted)
}

// stat summarises one metric over the passes.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// runChild runs one workload in its own process — so set-up time, CPU and
// peak RSS belong to that workload alone — and parses its result line.
func runChild(exe, workload string, seed int64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, jerr)
	}
	return &res, nil
}

// passes is how many untraced runs of every workload a full set makes.
const passes = 3

// runSet measures the full set: `passes` untraced runs of every workload,
// interleaved across workloads so machine drift spreads over all of them
// rather than landing on one, then one traced run each. It prints every
// metric as `workload metric value unit` and writes results/latest.json.
func runSet(seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	led := &ledger{Commit: "unknown", Seed: seed, Seconds: seconds, Passes: passes,
		NProc: runtime.NumCPU(), Go: runtime.Version(), Workloads: map[string]*workloadEntry{}}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		led.Commit = strings.TrimSpace(string(out))
	}
	samples := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, w := range workloadNames {
		led.Workloads[w] = &workloadEntry{EndToEnd: map[string]stat{}, PerLayer: map[string]metric{}}
		samples[w] = map[string][]float64{}
	}
	var attempted, failed int
	for pass := 0; pass < passes; pass++ {
		for _, w := range workloadNames {
			fmt.Fprintf(os.Stderr, "bench: pass %d/%d %s\n", pass+1, passes, w)
			res, err := runChild(exe, w, seed, seconds, 0)
			if err != nil {
				return err
			}
			entry := led.Workloads[w]
			entry.Requests = append(entry.Requests, res.Attempted)
			entry.Failed += res.Failed
			attempted += res.Attempted
			failed += res.Failed
			for name, m := range res.Metrics {
				samples[w][name] = append(samples[w][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	for _, w := range workloadNames {
		fmt.Fprintf(os.Stderr, "bench: traced %s\n", w)
		res, err := runChild(exe, w, seed, seconds, 1)
		if err != nil {
			return err
		}
		failed += res.Failed
		led.Workloads[w].PerLayer = res.Metrics
	}
	for _, w := range workloadNames {
		entry := led.Workloads[w]
		for name, v := range samples[w] {
			s := sortedCopy(v)
			entry.EndToEnd[name] = stat{units[name], quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), v}
		}
		e2e := map[string]metric{"error_rate": {entry.errorRate(), "ratio"}}
		for name, s := range entry.EndToEnd {
			e2e[name] = metric{s.Median, s.Unit}
		}
		printMetrics(w, e2e)
		printMetrics(w, entry.PerLayer)
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "bench", "results", "latest.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d timed requests, %d failed)\n", path, attempted, failed)
	if failed > 0 {
		return fmt.Errorf("%d answers failed the oracle", failed)
	}
	return nil
}

// spec is the part of BENCHMARK.json compare needs: each end-to-end metric's
// direction and bound.
type spec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain prints one row per (workload, end-to-end metric) of two
// ledgers — both medians, B/A with its base, and a verdict against the
// bound BENCHMARK.json fixes — and returns 1 on any regression, any rise in
// error_rate, or anything A measured that B lacks. Ledgers of different
// seeds or run lengths did different work; it refuses them with status 2.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var a, b ledger
	for i, dst := range []*ledger{&a, &b} {
		data, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(data, dst)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "bench compare: not comparable: A ran seed %d for %g s, B seed %d for %g s\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
		return 2
	}
	var sp spec
	root, err := repoRoot()
	if err == nil {
		var data []byte
		if data, err = os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
			err = json.Unmarshal(data, &sp)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA (%s)\tB (%s)\tB/A\tworse by\tbound\tverdict\n", a.Commit, b.Commit)
	regressed := 0
	names := make([]string, 0, len(a.Workloads))
	for w := range a.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wb == nil {
			regressed++
			fmt.Fprintf(tw, "%s\t(every metric)\t\t\t\t\t\tregressed (missing from B)\n", w)
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, ok := wa.EndToEnd[m.Name]
			if !ok {
				continue // A never measured it: nothing to hold B to
			}
			sb, ok := wb.EndToEnd[m.Name]
			if !ok {
				regressed++
				fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t\t\t\t\tregressed (missing from B)\n", w, m.Name, sa.Median, sa.Unit)
				continue
			}
			ratio := sb.Median / sa.Median
			worse := ratio - 1
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			switch {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%+.2f%%\t%.1f%%\t%s\n",
				w, m.Name, sa.Median, sa.Unit, sb.Median, sb.Unit, ratio, 100*worse, 100*m.Bound, verdict)
		}
		// error_rate has no relative bound: any rise is a regression.
		ea, eb := wa.errorRate(), wb.errorRate()
		verdict := "ok"
		if eb > ea {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\terror_rate\t%.6g ratio\t%.6g ratio\t\t%+.6g\t0\t%s\n", w, ea, eb, eb-ea, verdict)
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Printf("%d regression(s): B is worse than A (base) by more than the bound\n", regressed)
		return 1
	}
	return 0
}
