package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"paropt/internal/core"
	"paropt/internal/cost"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/obs/accuracy"
	"paropt/internal/parser"
	"paropt/internal/placement"
	"paropt/internal/query"
	"paropt/internal/search"
	"paropt/internal/service"
	"paropt/internal/storage"
	"paropt/internal/vec"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the request it belongs to (negative ids are set-up work).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs f as a span and returns its duration.
func (tr *tracer) do(req int, name, parent string, f func()) time.Duration {
	start := time.Since(tr.t0)
	f()
	end := time.Since(tr.t0)
	tr.spans = append(tr.spans, span{req, name, parent, start.Nanoseconds(), end.Nanoseconds()})
	return end - start
}

// write stores the spans as JSON lines, each with its self time: the span
// minus the part of it its child spans cover.
func (tr *tracer) write(path string) error {
	type key struct {
		req  int
		name string
	}
	children := map[key]int64{}
	for _, s := range tr.spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		err = enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, s.End - s.Start - children[key{s.Req, s.Name}]})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// session is the bench's own copy of what the service caches per template:
// the optimizer pinned to the query instance and its cover set.
type session struct {
	opt   *core.Optimizer
	cover *core.CoverSet
}

// traced holds the state of one traced run.
type traced struct {
	e      *env
	tr     *tracer
	check  *checker
	db     *storage.Database // the bench's own copy of the analyze data
	placed map[string]cost.PlacedRelation
	owners map[string][]string
	fstore *placement.Store
	cache  map[string]session // fingerprint → session
	rows   map[rowKey]int64   // independent-join answers

	// Per-request samples, one slice per reported median.
	d map[string][]float64
	// Totals over the traced section for the exact counts.
	sum map[string]float64
	// Per-search samples (cover_set_ms also split by shape).
	searches int
}

func (t *traced) add(name string, v float64) { t.d[name] = append(t.d[name], v) }

// search re-enacts a plan-cache miss: a fresh optimizer session and the
// cover-set search, with the search instruments read from its Stats.
func (t *traced) search(req int, q *query.Query, shape string) (s session, newOpt time.Duration, err error) {
	newOpt = t.tr.do(req, "core.new_optimizer", "reenact", func() {
		s.opt, err = core.NewOptimizer(t.e.cat, q, core.Config{Placed: t.placed})
	})
	if err != nil {
		return s, 0, err
	}
	coverMS := ms(t.tr.do(req, "search.cover_set", "reenact", func() { s.cover, err = s.opt.CoverSet() }))
	if err != nil {
		return s, 0, err
	}
	t.add("search.cover_set_ms", coverMS)
	t.add("search.cover_set_ms."+shape, coverMS)
	st := s.cover.Stats
	prof := st.Profile()
	var kept, hump int64
	for _, l := range prof.Layers {
		kept += l.Kept
		if 2*l.Card >= prof.Relations {
			hump += l.WallNanos
		}
	}
	t.searches++
	for name, v := range map[string]float64{
		"search.considered":       float64(st.PlansConsidered),
		"search.physical":         float64(st.PhysicalPlans),
		"search.kept":             float64(kept),
		"search.pruned_dominance": float64(st.PrunedDominance),
		"search.pruned_beam":      float64(st.PrunedBeam),
		"search.pruned_work":      float64(st.PrunedWork),
		"search.pruned_memory":    float64(st.PrunedMemory),
		"search.max_cover":        float64(st.MaxCoverSize),
		"search.peak_retained_kb": float64(prof.PeakBytesRetained) / 1024,
		"search.wall_ns":          float64(prof.WallNanos),
		"search.hump_ns":          float64(hump),
	} {
		t.sum[name] += v
	}
	return s, newOpt, nil
}

// execute runs the plan on the bench's own executor — the body of
// Optimizer.AnalyzeLive, kept apart so the result rows stay available for
// the fingerprint comparison — and returns wall time, stats and result.
func (t *traced) execute(req int, name string, s session, p *core.Plan, tr exchange.Transport) (time.Duration, *engine.ExecStats, *engine.Resultset, error) {
	stats := &engine.ExecStats{}
	ex := &engine.Executor{DB: t.db, Q: s.opt.Q, Parallel: t.e.in.parallel, Stats: stats, Transport: tr, Ctx: context.Background()}
	var rs *engine.Resultset
	var err error
	d := t.tr.do(req, name, "reenact", func() { rs, err = ex.Execute(p.Tree) })
	return d, stats, rs, err
}

// reenacted is what one re-enactment of the pipeline produced.
type reenacted struct {
	s      session
	plan   *core.Plan
	served time.Duration // time of the steps the service itself runs
	// exec workloads: the result of the local run and, on exec_dist, of the
	// run over the bench-owned cluster.
	rows            int64
	fpLocal, fpDist uint64
}

// reenact runs request i's pipeline through the layers' public functions in
// Service.serve's order, one span per call.
func (t *traced) reenact(i int, r request, sql, shape string) (re reenacted, err error) {
	in := t.e.in
	exec := in.parallel > 0
	step := func(name, metric string, f func()) time.Duration {
		d := t.tr.do(i, name, "reenact", f)
		if err == nil {
			t.add(metric, us(d))
			re.served += d
		}
		return d
	}
	var q *query.Query
	if step("parser.parse", "parser.parse_us", func() { q, err = parser.ParseQuery(sql, t.e.cat) }); err != nil {
		return re, err
	}
	var fp string
	step("query.fingerprint", "query.fingerprint_us", func() { fp = query.Fingerprint(q) })
	var ok bool
	if re.s, ok = t.cache[fp]; !ok {
		before := time.Now()
		var newOpt time.Duration
		if re.s, newOpt, err = t.search(i, q, shape); err != nil {
			return re, err
		}
		re.served += time.Since(before)
		t.add("core.new_optimizer_us", us(newOpt))
		if in.wantCache == "hit" {
			t.cache[fp] = re.s
		}
	}
	bound := r.bound()
	if step("core.select", "core.select_us", func() { re.plan, err = re.s.opt.SelectBounded(re.s.cover, bound) }); err != nil {
		return re, err
	}
	step("core.render", "core.render_us", func() {
		_, err = re.s.opt.ExplainJSON(re.plan)
		if exec { // /explain also renders the text report and breakdown
			_ = re.s.opt.Explain(re.plan)
			_ = re.s.opt.Mod.BreakdownTable(re.plan.Op)
		}
	})
	if err != nil {
		return re, err
	}
	t.add("core.cover_size", float64(len(re.s.cover.Frontier)))
	// search.FilterFrontier alone — the read use of a cover set; SelectBounded
	// above already contains it, so it is timed outside the spans.
	t0 := time.Now()
	search.FilterFrontier(re.s.cover.Frontier, bound, re.s.cover.Baseline.Work(), re.s.cover.Baseline.RT(), nil)
	t.add("search.filter_frontier_ns", float64(time.Since(t0).Nanoseconds()))
	if !exec {
		return re, nil
	}
	local, stats, rs, err := t.execute(i, "engine.exec", re.s, re.plan, nil)
	if err != nil {
		return re, err
	}
	t.engineMetrics(local, stats, re.plan, re.s)
	re.fpLocal, re.rows = rs.Fingerprint(), int64(rs.Len())
	if in.workload != execDist {
		re.served += local
		return re, nil
	}
	// What Service.analyze builds per request: a fresh cluster over the live
	// members with the placement's owners and the coordinator fallback.
	cluster := exchange.NewCluster(t.e.lb.Addrs(), exchange.ClusterConfig{
		Members: t.e.svc.Members, Owners: t.owners, Store: t.fstore, Fn: engine.FragmentJoin,
	})
	dist, _, rs, err := t.execute(i, "exchange.exec", re.s, re.plan, cluster)
	if err != nil {
		return re, err
	}
	re.served += dist
	re.fpDist = rs.Fingerprint()
	t.add("exchange.wire_tax_ms", ms(dist-local))
	t.exchangeMetrics(cluster, re.rows)
	return re, nil
}

func (r request) bound() search.Bound {
	if r.k > 0 {
		return search.ThroughputDegradation{K: r.k}
	}
	return nil
}

// one traces request i three ways — the re-enacted pipeline, the identical
// request in-process, and over HTTP — and checks the answers against the
// re-enactment. Whichever runs first finds caches and allocator cold, so the
// order alternates with i and the per-request differences
// (service.overhead_us, http.overhead_us) carry no order bias.
func (t *traced) one(i int, r request) error {
	in := t.e.in
	tmpl := &in.templates[r.tmpl]
	sql := tmpl.sql(r.lit)
	exec := in.parallel > 0

	var re reenacted
	var inprocAns, httpAns answer
	var inproc, overHTTP time.Duration
	steps := []func() error{
		func() (err error) {
			t.tr.do(i, "reenact", "request", func() { re, err = t.reenact(i, r, sql, tmpl.shape) })
			if err != nil {
				err = fmt.Errorf("re-enacting template %d: %w", r.tmpl, err)
			}
			return err
		},
		func() (err error) {
			oreq := service.OptimizeRequest{Query: sql, Catalog: t.e.version, K: r.k, AnalyzeParallel: in.parallel,
				Analyze: exec, Distributed: in.workload == execDist}
			if in.wantCache == "miss" {
				t.e.svc.InvalidateCache()
			}
			inproc = t.tr.do(i, "service.inproc", "request", func() {
				if !exec {
					var resp *service.OptimizeResponse
					if resp, err = t.e.svc.Optimize(context.Background(), oreq); err == nil {
						inprocAns = answerOf(resp)
					}
					return
				}
				var resp *service.ExplainResponse
				if resp, err = t.e.svc.Explain(context.Background(), oreq); err == nil {
					inprocAns = answerOf(&resp.OptimizeResponse)
					for _, op := range resp.Analyze.Ops {
						if op.Root {
							inprocAns.Analyze = &analyzeView{Ops: []opView{{ActRows: op.ActRows, Root: true}}}
						}
					}
				}
			})
			if err != nil {
				err = fmt.Errorf("in-process request for template %d: %w", r.tmpl, err)
			}
			return err
		},
		func() (err error) {
			if in.wantCache == "miss" {
				t.e.svc.InvalidateCache()
			}
			body := in.appendBody(nil, r, t.e.version)
			var status int
			var resp []byte
			overHTTP = t.tr.do(i, "http.request", "request", func() { status, resp, err = t.e.post(in.path, body, nil) })
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %.200s", status, resp)
			}
			if err == nil {
				err = json.Unmarshal(resp, &httpAns)
			}
			if err != nil {
				err = fmt.Errorf("HTTP request for template %d: %w", r.tmpl, err)
			}
			return err
		},
	}
	if i%2 == 1 {
		steps[0], steps[2] = steps[2], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	// The re-enacted plan is the oracle for what the service serves.
	want := re.plan.Tree.String()
	rk := rowKey{r.tmpl, r.lit}
	if exec {
		if _, ok := t.rows[rk]; !ok {
			t.rows[rk] = oracleCount(t.db, tmpl, r.lit)
		}
		t.check.attempted++
		switch {
		case re.rows != t.rows[rk]:
			t.check.fail("template %d literal %d: re-enacted plan returned %d rows, independent join %d", r.tmpl, r.lit, re.rows, t.rows[rk])
		case in.workload == execDist && re.fpLocal != re.fpDist:
			t.check.fail("template %d literal %d: distributed result fingerprint %x differs from local %x", r.tmpl, r.lit, re.fpDist, re.fpLocal)
		}
	}
	for _, a := range []*answer{&inprocAns, &httpAns} {
		t.check.attempted++
		switch {
		case a.PlanSignature != want:
			t.check.fail("template %d k=%g: served %s, core re-enactment chose %s", r.tmpl, r.k, a.PlanSignature, want)
		case exec && a.rootRows() != t.rows[rk]:
			t.check.fail("template %d literal %d: served plan returned %d rows, independent join %d", r.tmpl, r.lit, a.rootRows(), t.rows[rk])
		default:
			t.check.verify(r, a)
		}
	}
	t.add("service.overhead_us", us(inproc-re.served))
	t.add("http.overhead_us", us(overHTTP-inproc))
	t.add("http.traced_ms", ms(overHTTP))
	t.add("bench.served_us", us(re.served))
	t.add("core.plan_work_ratio", httpAns.Summary.Work/httpAns.Baseline.Work)
	return nil
}

func answerOf(r *service.OptimizeResponse) answer {
	a := answer{Cache: r.Cache, PlanSignature: r.PlanSignature, CoverSize: r.CoverSize,
		Summary: summary{r.Summary.ResponseTime, r.Summary.Work}}
	if r.Baseline != nil {
		a.Baseline = summary{r.Baseline.ResponseTime, r.Baseline.Work}
	}
	return a
}

// engineMetrics reads the executor's public instruments for one local run:
// the root's measured (tf, tl), the last scan close, and the model check.
func (t *traced) engineMetrics(wall time.Duration, stats *engine.ExecStats, p *core.Plan, s session) {
	var root *engine.NodeStat
	var scan time.Duration
	for _, n := range stats.Nodes() {
		if n.Node == p.Tree {
			root = n
		}
		if n.Node.IsLeaf() && n.Last > scan {
			scan = n.Last
		}
	}
	if root == nil {
		return
	}
	rep := accuracy.Analyze(s.opt.Mod, p.Op, stats)
	t.add("engine.exec_ms", ms(wall))
	t.add("engine.tf_ms", ms(root.First))
	t.add("engine.tl_ms", ms(root.Last))
	t.add("engine.scan_ms", ms(scan))
	t.add("engine.join_tail_ms", ms(root.Last-scan))
	t.add("engine.materialize_ms", ms(wall-root.Last))
	t.add("engine.rows_out", float64(root.Rows))
	t.add("engine.batches", float64(root.Batches))
	t.add("engine.rows_per_s", float64(root.Rows)/wall.Seconds())
	t.add("engine.model_rel_err", rep.MeanAbsRelErr)
	t.add("engine.max_qerr_rows", rep.MaxQErrRows)
}

// exchangeMetrics folds one distributed run's per-link counters into the
// run totals.
func (t *traced) exchangeMetrics(c *exchange.Cluster, rowsOut int64) {
	var coord int64
	for _, l := range c.Links() {
		t.sum["exchange.bytes_sent"] += float64(l.BytesSent)
		t.sum["exchange.bytes_recv"] += float64(l.BytesRecv)
		t.sum["exchange.batches_sent"] += float64(l.BatchesSent)
		t.sum["exchange.batches_recv"] += float64(l.BatchesRecv)
		t.sum["exchange.send_ms"] += float64(l.SendNanos) / 1e6
		t.sum["exchange.stall_left_ms"] += float64(l.StallLeftNanos) / 1e6
		t.sum["exchange.stall_right_ms"] += float64(l.StallRightNanos) / 1e6
		t.sum["exchange.stall_result_ms"] += float64(l.StallResultNanos) / 1e6
		coord += l.BytesSent + l.BytesRecv
	}
	t.sum["exchange.fragments"] += float64(c.Fragments())
	t.sum["exchange.shipped_scans"] += float64(c.ShippedScans())
	t.sum["exchange.retries"] += float64(c.Retries())
	t.sum["exchange.fallbacks"] += float64(c.Fallbacks())
	t.sum["exchange.coord_bytes"] += float64(coord)
	t.sum["exchange.result_rows"] += float64(rowsOut)
	t.sum["exchange.runs"]++
}

// runTraced is the traced run. A short untraced closed-loop section with one
// client comes first (its p50 is the base of bench.trace_overhead_share and
// its tail is http.latency_p99_ms); then the same seeded sequence is
// replayed one request at a time with every layer call recorded as a span.
// Per-layer metrics come only from here, end-to-end metrics never do.
func runTraced(in *inputs, seconds float64, logw io.Writer) (*result, error) {
	calib := []float64{calibMS(passCalib)}
	e, _, err := medianSetUp(in, 1, logw)
	if err != nil {
		return nil, err
	}
	defer e.close()
	m := e.svc.Metrics()

	base := e.load(seconds / 4)

	t := &traced{e: e, tr: &tracer{t0: time.Now()}, check: newChecker(in),
		cache: map[string]session{}, rows: map[rowKey]int64{}, d: map[string][]float64{}, sum: map[string]float64{}}
	var genRowsPerS float64
	if in.parallel > 0 {
		t0 := time.Now()
		t.db = newOracleDB(e.cat)
		var rows int
		for _, tb := range t.db.Tables {
			rows += tb.NumRows()
		}
		genRowsPerS = float64(rows) / time.Since(t0).Seconds()
	}
	if in.workload == execDist {
		// What Service.analyze hands exchange.NewCluster and what
		// Service.placedConfig hands the cost model, rebuilt from the
		// public placement map (default machine: a single node).
		pm := e.svc.PlacementFor(e.version)
		if pm == nil {
			return nil, fmt.Errorf("no placement installed for catalog %s", e.version)
		}
		t.owners = pm.Prune(e.lb.Addrs()).OwnerMap()
		t.placed = map[string]cost.PlacedRelation{}
		for name, a := range pm.Assignments {
			t.placed[name] = cost.PlacedRelation{Column: a.Column, Nodes: []int{0}}
		}
		t.fstore = placement.NewStore(e.cat, dataSeed)
		for _, tb := range t.db.Tables {
			t.fstore.AddTable(tb)
		}
	}
	// Search the hit workloads' working set into the bench's own cache, as
	// the service's set-up did; these are the searches search.* reports there.
	if in.wantCache == "hit" {
		for n, tmpl := range in.warm {
			q, err := parser.ParseQuery(in.templates[tmpl].sql(in.templates[tmpl].lit), e.cat)
			if err != nil {
				return nil, err
			}
			s, _, err := t.search(-1-n, q, in.templates[tmpl].shape)
			if err != nil {
				return nil, err
			}
			t.cache[query.Fingerprint(q)] = s
		}
	}

	before := struct{ hits, misses, full, reuse, rejected int64 }{
		m.CacheHits.Load(), m.CacheMisses.Load(), m.FullSearch.Load(), m.CoverReuse.Load(), m.Rejected.Load()}
	st := newStream(in)
	deadline := time.Now().Add(time.Duration(seconds * 0.75 * float64(time.Second)))
	n := 0
	// Whole blocks only, as in load: per-request averages of counts then
	// cover the same mix whatever the run length.
	for ; n == 0 || time.Now().Before(deadline) || n%in.block != 0; n++ {
		r := st.next()
		var err error
		t.tr.do(n, "request", "", func() { err = t.one(n, r) })
		if err != nil {
			return nil, err
		}
	}
	hits, misses := m.CacheHits.Load()-before.hits, m.CacheMisses.Load()-before.misses
	calib = append(calib, calibMS(passCalib))

	for _, msg := range append(base.check.errs, t.check.errs...) {
		fmt.Fprintln(logw, "oracle:", msg)
	}
	if root, err := repoRoot(); err == nil {
		if err := t.tr.write(filepath.Join(root, "bench", "results", "trace_"+in.workload+".jsonl")); err != nil {
			fmt.Fprintln(logw, "trace file:", err)
		}
		t.sum["repo.nontest_loc"] = nontestLOC(root)
	}

	med := func(name string) float64 { return median(t.d[name]) }
	perSearch := func(name string) float64 {
		if t.searches == 0 {
			return 0
		}
		return t.sum[name] / float64(t.searches)
	}
	perDist := func(name string) float64 {
		if t.sum["exchange.runs"] == 0 {
			return 0
		}
		return t.sum[name] / t.sum["exchange.runs"]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	baseLat := sortedCopy(base.latMS)
	baseP50 := quantile(baseLat, 0.5)
	tracedP50 := med("http.traced_ms")
	// Layer self times that add up to the traced HTTP p50: the served
	// re-enacted steps, then what the service and the HTTP stack add.
	attributed := med("bench.served_us") + med("service.overhead_us") + med("http.overhead_us")
	attempted := base.check.attempted + t.check.attempted
	failed := base.check.failed + t.check.failed

	mt := map[string]metric{
		"parser.parse_us":        {med("parser.parse_us"), "us"},
		"parser.schema_us":       {e.parseSchemaUS, "us"},
		"query.fingerprint_us":   {med("query.fingerprint_us"), "us"},
		"catalog.fingerprint_us": {e.catalogFpUS, "us"},

		"service.overhead_us":     {med("service.overhead_us"), "us"},
		"service.cache_hit_ratio": {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"service.full_searches":   {float64(m.FullSearch.Load() - before.full), "count"},
		"service.cover_reuses":    {float64(m.CoverReuse.Load() - before.reuse), "count"},
		"service.rejected":        {float64(m.Rejected.Load() - before.rejected), "count"},

		"http.overhead_us":       {med("http.overhead_us"), "us"},
		"http.response_bytes":    {median(base.bytes), "bytes"},
		"http.latency_p99_ms":    {quantile(baseLat, 0.99), "ms"},
		"loadgen.client_self_us": {median(base.selfUS), "us"},

		"core.select_us":            {med("core.select_us"), "us"},
		"core.render_us":            {med("core.render_us"), "us"},
		"core.cover_size":           {med("core.cover_size"), "count"},
		"core.new_optimizer_us":     {med("core.new_optimizer_us"), "us"},
		"core.plan_work_ratio":      {geomean(t.d["core.plan_work_ratio"]), "ratio"},
		"search.filter_frontier_ns": {med("search.filter_frontier_ns"), "ns"},

		"search.cover_set_ms":     {med("search.cover_set_ms"), "ms"},
		"search.considered":       {perSearch("search.considered"), "count"},
		"search.physical":         {perSearch("search.physical"), "count"},
		"search.kept":             {perSearch("search.kept"), "count"},
		"search.pruned_dominance": {perSearch("search.pruned_dominance"), "count"},
		"search.pruned_beam":      {perSearch("search.pruned_beam"), "count"},
		"search.pruned_work":      {perSearch("search.pruned_work"), "count"},
		"search.pruned_memory":    {perSearch("search.pruned_memory"), "count"},
		"search.max_cover":        {perSearch("search.max_cover"), "count"},
		"search.peak_retained_kb": {perSearch("search.peak_retained_kb"), "KB"},
		"search.hump_share":       {ratio(t.sum["search.hump_ns"], t.sum["search.wall_ns"]), "ratio"},
		"search.kept_ratio":       {ratio(t.sum["search.kept"], t.sum["search.physical"]), "ratio"},
		"search.ns_per_candidate": {ratio(t.sum["search.wall_ns"], t.sum["search.physical"]), "ns"},

		"exchange.bytes_sent":                 {perDist("exchange.bytes_sent"), "bytes"},
		"exchange.bytes_recv":                 {perDist("exchange.bytes_recv"), "bytes"},
		"exchange.batches_sent":               {perDist("exchange.batches_sent"), "count"},
		"exchange.batches_recv":               {perDist("exchange.batches_recv"), "count"},
		"exchange.send_ms":                    {perDist("exchange.send_ms"), "ms"},
		"exchange.stall_left_ms":              {perDist("exchange.stall_left_ms"), "ms"},
		"exchange.stall_right_ms":             {perDist("exchange.stall_right_ms"), "ms"},
		"exchange.stall_result_ms":            {perDist("exchange.stall_result_ms"), "ms"},
		"exchange.fragments":                  {perDist("exchange.fragments"), "count"},
		"exchange.shipped_scans":              {perDist("exchange.shipped_scans"), "count"},
		"exchange.retries":                    {perDist("exchange.retries"), "count"},
		"exchange.fallbacks":                  {perDist("exchange.fallbacks"), "count"},
		"exchange.coord_bytes_per_result_row": {ratio(t.sum["exchange.coord_bytes"], t.sum["exchange.result_rows"]), "bytes"},
		"exchange.wire_tax_ms":                {med("exchange.wire_tax_ms"), "ms"},

		"storage.gen_rows_per_s": {genRowsPerS, "1/s"},
		"placement.install_ms":   {e.installMS, "ms"},

		"bench.unattributed_share":   {1 - ratio(attributed/1000, tracedP50), "ratio"},
		"bench.trace_overhead_share": {ratio(tracedP50-baseP50, baseP50), "ratio"},
		"bench.calib_ms":             {median(calib), "ms"},
		"bench.traced_requests":      {float64(n), "count"},
		"bench.error_rate":           {ratio(float64(failed), float64(attempted)), "ratio"},
		"repo.nontest_loc":           {t.sum["repo.nontest_loc"], "lines"},
	}
	for _, shape := range []string{"chain", "star", "cycle", "clique"} {
		mt["search.cover_set_ms."+shape] = metric{med("search.cover_set_ms." + shape), "ms"}
	}
	for _, name := range []string{"exec_ms", "tf_ms", "tl_ms", "scan_ms", "join_tail_ms", "materialize_ms"} {
		mt["engine."+name] = metric{med("engine." + name), "ms"}
	}
	mt["engine.rows_out"] = metric{med("engine.rows_out"), "count"}
	mt["engine.batches"] = metric{med("engine.batches"), "count"}
	mt["engine.rows_per_s"] = metric{med("engine.rows_per_s"), "1/s"}
	mt["engine.model_rel_err"] = metric{med("engine.model_rel_err"), "ratio"}
	mt["engine.max_qerr_rows"] = metric{med("engine.max_qerr_rows"), "ratio"}
	for name, v := range microMetrics(in, e) {
		mt[name] = v
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: mt}, nil
}

// microMetrics times public kernels that no request isolates: the vec
// kernels on 1 M seeded rows, and Service.Optimize on a plan-cache hit with
// request tracing on (paroptd's default) against the same call with it off.
func microMetrics(in *inputs, e *env) map[string]metric {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(in.seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(n)
	}
	perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	out := map[string]metric{}

	ht := vec.NewHashTable()
	t0 := time.Now()
	for _, k := range keys {
		ht.Insert(k)
	}
	out["vec.hash_insert_ns_per_row"] = metric{perRow(time.Since(t0)), "ns"}
	out["vec.hash_bytes_per_row"] = metric{float64(ht.Bytes()) / n, "bytes"}
	var matches int
	t0 = time.Now()
	for _, k := range keys {
		ht.Probe(k, func(row int32) bool {
			if keys[row] == k {
				matches++
			}
			return true
		})
	}
	out["vec.hash_probe_ns_per_row"] = metric{perRow(time.Since(t0)), "ns"}

	cols := [][]int64{keys, keys, keys, keys}
	idx := make([]int32, engine.DefaultBatchRows)
	batches := n / len(idx)
	var filtered, gathered int
	var rows []storage.Row
	var dFilter, dGather, dRows time.Duration
	for b := 0; b < batches; b++ {
		lo := b * len(idx)
		v := &vec.Vec{Cols: [][]int64{keys[lo : lo+len(idx)], keys[lo : lo+len(idx)], keys[lo : lo+len(idx)], keys[lo : lo+len(idx)]}}
		t0 = time.Now()
		filtered += v.FilterEq(0, keys[lo]).Len()
		dFilter += time.Since(t0)
		for i := range idx {
			idx[i] = int32(keys[lo+i])
		}
		bld := vec.NewBuilder(len(cols), len(idx))
		t0 = time.Now()
		bld.AppendGather(0, cols, idx)
		dGather += time.Since(t0)
		gathered += bld.Len()
		t0 = time.Now()
		rows = v.AppendRows(rows[:0])
		dRows += time.Since(t0)
	}
	kernelSink += uint64(matches + filtered + gathered + len(rows))
	out["vec.filter_eq_ns_per_row"] = metric{perRow(dFilter), "ns"}
	out["vec.gather_ns_per_row"] = metric{perRow(dGather), "ns"}
	out["vec.append_rows_ns_per_row"] = metric{perRow(dRows), "ns"}

	out["obs.trace_overhead_us"] = metric{traceOverheadUS(in, e), "us"}
	return out
}

// traceOverheadUS alternates the same in-process plan-cache hits between the
// run's service (TraceCapacity default) and a second one with tracing
// disabled, over the first warm templates, and returns the median difference.
func traceOverheadUS(in *inputs, e *env) float64 {
	off, err := service.New(service.Config{TraceCapacity: -1})
	if err != nil {
		return 0
	}
	defer off.Close()
	version, err := off.RegisterSchema(in.ddl)
	if err != nil {
		return 0
	}
	tmpls := in.warm[:min(4, len(in.warm))]
	ctx := context.Background()
	call := func(s *service.Service, v string, tmpl int) (time.Duration, error) {
		req := service.OptimizeRequest{Query: in.templates[tmpl].sql(in.templates[tmpl].lit), Catalog: v}
		t0 := time.Now()
		_, err := s.Optimize(ctx, req)
		return time.Since(t0), err
	}
	for _, tmpl := range tmpls { // both caches warm
		if _, err := call(off, version, tmpl); err != nil {
			return 0
		}
		if _, err := call(e.svc, e.version, tmpl); err != nil {
			return 0
		}
	}
	var diffs []float64
	for i := 0; i < 500; i++ {
		tmpl := tmpls[i%len(tmpls)]
		on, err1 := call(e.svc, e.version, tmpl)
		without, err2 := call(off, version, tmpl)
		if err1 != nil || err2 != nil {
			return 0
		}
		diffs = append(diffs, us(on-without))
	}
	return median(diffs)
}
