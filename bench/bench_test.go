package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"paropt/internal/engine"
	"paropt/internal/parser"
)

// testScale shrinks every workload so the whole harness — set-up, timed
// section, oracle, traced run — passes in seconds, and tables are small
// enough for the O(n²) engine.ReferenceJoin to serve as a second oracle.
// The plan_miss population still exceeds the 512-entry plan cache, so a
// wrap-around keeps missing.
var testScale = scale{
	planCardLo: 1_000, planCardHi: 4_000,
	hitTemplates: 9, hitSizes: []int{3, 4},
	missBlocks: 40, missSmall: 3, missLarge: 4,
	execCard: 300,
}

func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range sp.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range sp.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// sameNames fails unless got holds exactly the metric names of want, each
// well-formed.
func sameNames(t *testing.T, what string, got map[string]metric, want map[string]bool) {
	t.Helper()
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for name := range got {
		if !wellFormed.MatchString(name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", what, name)
		}
		if !want[name] {
			t.Errorf("%s: metric %q is not listed in BENCHMARK.json", what, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %q but the run did not report it", what, name)
		}
	}
}

// TestWorkloadsShort runs every workload untraced and traced at test scale:
// the oracle must pass and the reported names must be BENCHMARK.json's.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloadNames {
		in, err := generate(w, 1, testScale, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runEndToEnd(in, 0.25, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s untraced: correct=%t attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, w+" untraced", res.Metrics, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, name, m.Value)
			}
		}

		in, _ = generate(w, 1, testScale, 2)
		res, err = runTraced(in, 0.4, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d checks failed", w, res.Failed, res.Attempted)
		}
		sameNames(t, w+" traced", res.Metrics, perLayer)
		// Predicted zeros: the bypass workloads must not touch the layer.
		zero := map[string][]string{
			planHit:   {"service.full_searches", "exchange.fragments", "engine.rows_out"},
			planMiss:  {"service.cache_hit_ratio", "service.cover_reuses", "exchange.fragments"},
			execLocal: {"service.full_searches", "exchange.fragments", "exchange.bytes_sent", "exchange.wire_tax_ms"},
			execDist:  {"service.full_searches", "exchange.fallbacks", "exchange.retries"},
		}
		for _, name := range zero[w] {
			if v := res.Metrics[name].Value; v != 0 {
				t.Errorf("%s: %s = %g, predicted 0", w, name, v)
			}
		}
		if v := res.Metrics["exchange.shipped_scans"].Value; w == execDist && v <= 0 {
			t.Errorf("exec_dist shipped no leaf scans (%g) despite the installed placement", v)
		}
	}
}

// TestSeedDeterminism: the same seed gives the same inputs and the same
// exact metrics; another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a, _ := generate(w, 7, testScale, 2)
		b, _ := generate(w, 7, testScale, 2)
		c, _ := generate(w, 8, testScale, 2)
		if a.sequenceHash(200) != b.sequenceHash(200) {
			t.Errorf("%s: same seed, different request sequence", w)
		}
		if a.sequenceHash(200) == c.sequenceHash(200) {
			t.Errorf("%s: different seeds, same request sequence", w)
		}
	}
	var ratios []float64
	for i := 0; i < 2; i++ {
		in, _ := generate(execLocal, 7, testScale, 2)
		res, err := runEndToEnd(in, 0.1, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, res.Metrics["plan_rt_ratio"].Value)
	}
	if ratios[0] != ratios[1] {
		t.Errorf("plan_rt_ratio differs between two runs of one seed: %v", ratios)
	}
}

// TestOracleAgainstReferenceJoin: the bench's independent hash join and the
// engine's nested-loop reference agree on every executed template.
func TestOracleAgainstReferenceJoin(t *testing.T) {
	in, err := generate(execLocal, 3, testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := parser.ParseSchema(in.ddl)
	if err != nil {
		t.Fatal(err)
	}
	db := newOracleDB(cat)
	for i := range in.templates {
		tmpl := &in.templates[i]
		q, err := parser.ParseQuery(tmpl.sql(tmpl.lit), cat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.ReferenceJoin(&engine.Executor{DB: db, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := oracleCount(db, tmpl, tmpl.lit), int64(ref.Len()); got != want {
			t.Errorf("template %d (%s): independent join %d rows, ReferenceJoin %d", i, tmpl.sql(tmpl.lit), got, want)
		}
	}
}

// TestScanAnswer: the field scan reads what a full decode reads, indented
// or compact, and ignores a key's name appearing as a value.
func TestScanAnswer(t *testing.T) {
	want := answer{Cache: "hit", PlanSignature: "HJ(scan(a), scan(b))", CoverSize: 12,
		Summary: summary{1.5, 3e6}, Baseline: summary{2.25, 2.5e6}}
	for _, body := range []string{
		`{"fingerprint":"cache","cache":"hit","coverSize":12,"planSignature":"HJ(scan(a), scan(b))","summary":{"responseTime":1.5,"work":3e6},"baseline":{"responseTime":2.25,"work":2.5e6},"plan":{"work":9}}`,
		"{\n  \"cache\": \"hit\",\n  \"coverSize\": 12,\n  \"planSignature\": \"HJ(scan(a), scan(b))\",\n  \"summary\": {\n    \"responseTime\": 1.5,\n    \"work\": 3000000\n  },\n  \"baseline\": {\n    \"work\": 2500000,\n    \"responseTime\": 2.25\n  }\n}",
	} {
		var got answer
		if !scanAnswer([]byte(body), &got) || got != want {
			t.Errorf("scanAnswer(%s) = %+v, want %+v", body, got, want)
		}
	}
	// What the scan cannot read plainly it must refuse, so that the caller
	// decodes in full: a missing field, an escape inside a string.
	for _, body := range []string{
		`{"cache":"hit"}`,
		`{"cache":"hit","planSignature":"HJ(\"a\")","summary":{"responseTime":1,"work":1},"baseline":{"responseTime":1,"work":1}}`,
	} {
		var a answer
		if scanAnswer([]byte(body), &a) {
			t.Errorf("scanAnswer accepted %s", body)
		}
	}
}

// TestCompareVerdicts drives `bench compare` over small ledgers of three
// passes of 100 requests.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, p50 float64, failed int, workloads ...string) string {
		led := ledger{Commit: name, Seed: seed, Seconds: 20, Workloads: map[string]*workloadEntry{}}
		for _, w := range workloads {
			led.Workloads[w] = &workloadEntry{Requests: []int{100, 100, 100}, Failed: failed, EndToEnd: map[string]stat{
				"latency_p50_ms": {"ms", p50, p50 * 0.99, p50 * 1.01, nil},
			}}
		}
		data, _ := json.Marshal(led)
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 1, 1.0, 0, planHit, planMiss)
	for _, tc := range []struct {
		name      string
		seed      int64
		p50       float64
		failed    int
		workloads []string
		status    int
	}{
		{"same", 1, 1.0, 0, []string{planHit, planMiss}, 0},
		{"faster", 1, 0.5, 0, []string{planHit, planMiss}, 0},
		{"slower", 1, 2.0, 0, []string{planHit, planMiss}, 1},
		// 5 wrong answers, all in one pass of three: the median pass has none.
		{"one-bad-pass", 1, 1.0, 5, []string{planHit, planMiss}, 1},
		{"workload-missing", 1, 1.0, 0, []string{planHit}, 1},
		{"other-seed", 2, 1.0, 0, []string{planHit, planMiss}, 2},
	} {
		if got := compareMain([]string{base, write(tc.name, tc.seed, tc.p50, tc.failed, tc.workloads...)}); got != tc.status {
			t.Errorf("compare base %s: exit status %d, want %d", tc.name, got, tc.status)
		}
	}
}

// TestQuietWindows: the timings are taken over the windows neither
// instrument flags, or over the least disturbed quarter of the asked-for
// length when a disturbance outlasts the section.
func TestQuietWindows(t *testing.T) {
	tick := 0.02 * float64(runtime.NumCPU()) // two steal ticks in a 1 s window count as disturbed
	lr := &loadResult{calibMin: 2, windows: []window{
		{first: 0, wallS: 1, calibMS: 2.1},
		{first: 1, wallS: 1, calibMS: 2.1, stealS: tick},
		{first: 2, wallS: 1, calibMS: 2.5},
		{first: 3, wallS: 1, calibMS: 2},
	}}
	firsts := func(ws []window) (f []int) {
		for _, w := range ws {
			f = append(f, w.first)
		}
		sort.Ints(f)
		return f
	}
	if got := firsts(lr.quiet(4)); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("quiet windows %v, want [0 3]", got)
	}
	lr.windows = lr.windows[1:3] // nothing quiet: keep seconds/4 of the least disturbed
	if got := firsts(lr.quiet(4)); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("least disturbed windows %v, want [1]", got)
	}
}
