package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs"
)

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$`)
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// validateExposition asserts the text parses as Prometheus exposition format
// 0.0.4 and returns the `# TYPE` lines in order. Every sample must belong to
// a declared family, and every histogram family must close with its +Inf
// bucket, _sum and _count series.
func validateExposition(t *testing.T, text string) []string {
	t.Helper()
	families := map[string]string{} // family name → type
	var typeLines []string
	histSeen := map[string]map[string]bool{} // histogram family → {inf, sum, count}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "":
			t.Errorf("line %d: empty line", ln+1)
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			if _, dup := families[m[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for family %s", ln+1, m[1])
			}
			families[m[1]] = m[2]
			typeLines = append(typeLines, line)
			if m[2] == "histogram" {
				histSeen[m[1]] = map[string]bool{}
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unknown comment form: %q", ln+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed sample: %q", ln+1, line)
				continue
			}
			name, labels := m[1], m[2]
			if labels != "" {
				for _, l := range strings.Split(labels[1:len(labels)-1], ",") {
					if !labelRe.MatchString(l) {
						t.Errorf("line %d: malformed label %q", ln+1, l)
					}
				}
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name && families[base] == "histogram" {
					family = base
					switch suffix {
					case "_bucket":
						if strings.Contains(labels, `le="+Inf"`) {
							histSeen[base]["inf"] = true
						}
					case "_sum":
						histSeen[base]["sum"] = true
					case "_count":
						histSeen[base]["count"] = true
					}
				}
			}
			if _, ok := families[family]; !ok {
				t.Errorf("line %d: sample %s has no TYPE declaration", ln+1, name)
			}
		}
	}
	for fam, seen := range histSeen {
		for _, part := range []string{"inf", "sum", "count"} {
			if !seen[part] {
				t.Errorf("histogram %s missing %s series", fam, part)
			}
		}
	}
	return typeLines
}

// renderMetrics renders the service's family table as /metrics would.
func renderMetrics(s *Service) string {
	var buf bytes.Buffer
	obs.WriteFamilies(&buf, s.families())
	return buf.String()
}

// TestMetricsExpositionGolden drives real traffic, renders /metrics, checks
// the output parses cleanly, and pins the set of exported families to the
// golden file.
func TestMetricsExpositionGolden(t *testing.T) {
	s := newTestService(t, nil)
	ctx := context.Background()
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(6, 7), Analyze: true}); err != nil {
		t.Fatal(err)
	}
	s.start = time.Now().Add(-time.Second)
	text := renderMetrics(s)
	got := strings.Join(validateExposition(t, text), "\n") + "\n"

	goldenPath := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported metric families drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}

	// The acceptance signal: an analyze run leaves a nonzero cost-model
	// error histogram on /metrics.
	re := regexp.MustCompile(`paroptd_cost_rel_error_bucket\{le="\+Inf"\} (\d+)`)
	m := re.FindStringSubmatch(text)
	if m == nil || m[1] == "0" {
		t.Errorf("cost-model error histogram should be nonzero after analyze, got %v", m)
	}
	if !strings.Contains(text, "paroptd_build_info{version=") {
		t.Error("metrics missing build info")
	}
	if !strings.Contains(text, "paroptd_uptime_seconds 1") {
		t.Error("metrics missing uptime gauge")
	}
	if !strings.Contains(text, `paroptd_phase_seconds_count{phase="execute"} 1`) {
		t.Error("metrics missing execute phase count")
	}
}

// TestMetricsZeroValueRenders guards the no-traffic path: a service nothing
// has touched, with tracing disabled, must render parseable output with the
// right cost-error buckets.
func TestMetricsZeroValueRenders(t *testing.T) {
	s, err := New(Config{TraceCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	text := renderMetrics(s)
	validateExposition(t, text)
	if !strings.Contains(text, `paroptd_cost_rel_error_bucket{le="0.01"} 0`) {
		t.Error("an untouched service should still use the relative-error buckets")
	}
}

// TestFamilyTableWellFormed: every row of the daemon's family table has a
// valid, unique name, HELP text and a TYPE the exposition format knows.
func TestFamilyTableWellFormed(t *testing.T) {
	nameRe := regexp.MustCompile(`^paroptd_[a-z0-9_]+$`)
	seen := map[string]bool{}
	for _, f := range newTestService(t, nil).families() {
		if !nameRe.MatchString(f.Name) || seen[f.Name] {
			t.Errorf("family name %q invalid or duplicated", f.Name)
		}
		seen[f.Name] = true
		if f.Help == "" || strings.ContainsAny(f.Help, "\n\\") {
			t.Errorf("%s: HELP %q empty or needs escaping", f.Name, f.Help)
		}
		if f.Type != "counter" && f.Type != "gauge" && f.Type != "histogram" {
			t.Errorf("%s: TYPE %q", f.Name, f.Type)
		}
		if f.Collect == nil {
			t.Errorf("%s: no collector", f.Name)
		}
	}
}

var (
	addrRe      = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	goversionRe = regexp.MustCompile(`goversion="[^"]*"`)
)

// TestMetricsSampleSetMatchesParent is the sample-level differential against
// the hand-rolled writer this table replaced: testdata/metrics_samples.parent
// is the sorted, de-duplicated `name{labels}` set that writer emitted after
// the traffic below (worker addresses and the Go version normalized). The
// table must emit exactly that set minus the three {quantile=…} samples,
// which were never legal under a histogram TYPE.
func TestMetricsSampleSetMatchesParent(t *testing.T) {
	lb, err := exchange.StartLoopback(2, engine.FragmentJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	s := newTestService(t, nil)
	ctx := context.Background()
	for _, addr := range lb.Addrs() {
		if _, err := s.RegisterWorker(addr, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Optimize(ctx, OptimizeRequest{Query: chainSQL(6, 7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(6, 7), Analyze: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(ctx, OptimizeRequest{Query: chainSQL(4, 7), Analyze: true, Distributed: true}); err != nil {
		t.Fatal(err)
	}
	s.scrapeWorkers(ctx)
	s.clusterMu.Lock()
	s.fallbackReasons["worker_died"]++
	s.clusterMu.Unlock()

	set := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(renderMetrics(s), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.LastIndexByte(line, ' ')]
		set[goversionRe.ReplaceAllString(addrRe.ReplaceAllString(name, "ADDR"), `goversion="GO"`)] = true
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "metrics_samples.parent"))
	if err != nil {
		t.Fatal(err)
	}
	var quantiles int
	for _, want := range strings.Split(strings.TrimRight(string(parent), "\n"), "\n") {
		if strings.Contains(want, "{quantile=") {
			quantiles++
			continue
		}
		if !set[want] {
			t.Errorf("sample %s was emitted by the parent's writer and is missing", want)
		}
		delete(set, want)
	}
	if quantiles != 3 {
		t.Errorf("parent list holds %d quantile samples, want 3", quantiles)
	}
	for extra := range set {
		t.Errorf("sample %s was not emitted by the parent's writer", extra)
	}
}
