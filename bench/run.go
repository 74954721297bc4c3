package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"paropt/internal/catalog"
	"paropt/internal/engine"
	"paropt/internal/engine/exchange"
	"paropt/internal/parser"
	"paropt/internal/placement"
	"paropt/internal/service"
)

// dataSeed is paroptd's default -data-seed; the bench generates its oracle
// database and the worker stores with it so all three hold the same rows.
const dataSeed = 1

// env is one set-up system under test: a service with paroptd's defaults
// behind its own HTTP mux on a loopback TCP listener, the registered schema,
// a warm plan cache and — for exec_dist — two loopback workers with an
// installed placement.
type env struct {
	in      *inputs
	svc     *service.Service
	srv     *http.Server
	base    string
	client  *http.Client
	version string
	cat     *catalog.Catalog // the bench's own parse of the DDL
	lb      *exchange.Loopback
	// parseSchemaUS, catalogFpUS and installMS time the set-up steps that
	// have a public function of their own.
	parseSchemaUS, catalogFpUS, installMS float64
}

// setUp builds the system under test and returns once it is ready for the
// first timed request.
func setUp(in *inputs) (e *env, err error) {
	e = &env{in: in}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.svc, err = service.New(service.Config{}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.srv = &http.Server{Handler: e.svc.Handler()}
	go e.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}

	var reg service.SchemaResponse
	if err = e.postJSON("/schema", service.SchemaRequest{DDL: in.ddl}, &reg); err != nil {
		return nil, err
	}
	e.version = reg.Catalog

	t := time.Now()
	if e.cat, err = parser.ParseSchema(in.ddl); err != nil {
		return nil, err
	}
	e.parseSchemaUS = us(time.Since(t))
	t = time.Now()
	if fp := e.cat.Fingerprint(); fp != e.version {
		return nil, fmt.Errorf("catalog version %s from /schema differs from the bench's own parse %s", e.version, fp)
	}
	e.catalogFpUS = us(time.Since(t))

	if in.workload == execDist {
		// Two worker "processes" on real sockets whose stores share the
		// service's catalog and data seed — what paroptw bootstraps from
		// GET /cluster/placement (internal/service/cluster_test.go).
		e.lb, err = exchange.StartLoopbackWorkers([]*exchange.Worker{
			{Join: engine.FragmentJoin, Store: placement.NewStore(e.cat, dataSeed)},
			{Join: engine.FragmentJoin, Store: placement.NewStore(e.cat, dataSeed)},
		})
		if err != nil {
			return nil, err
		}
		for _, addr := range e.lb.Addrs() {
			if err = e.postJSON("/cluster/register", service.ClusterRequest{Addr: addr}, nil); err != nil {
				return nil, err
			}
		}
		t = time.Now()
		if err = e.postJSON("/cluster/placement", service.PlacementRequest{Catalog: e.version}, nil); err != nil {
			return nil, err
		}
		e.installMS = ms(time.Since(t))
	}

	// Warm-up: searches the working set into the plan cache, generates the
	// analyze database and the worker shards, opens the connections.
	var body, resp []byte
	for _, tmpl := range in.warm {
		body = in.appendBody(body[:0], request{tmpl: tmpl, lit: in.templates[tmpl].lit}, e.version)
		var status int
		if status, resp, err = e.post(in.path, body, resp); err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm-up of template %d: HTTP %d: %s", tmpl, status, resp)
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.lb != nil {
		e.lb.Close()
	}
}

// post issues one keep-alive POST and reads the whole response into buf.
func (e *env) post(path string, body, buf []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, buf, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, b.Bytes(), err
	}
	return resp.StatusCode, b.Bytes(), nil
}

func (e *env) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	status, resp, err := e.post(path, body, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, status, resp)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp, out)
}

// medianSetUp sets the system up n times and keeps the last one; the
// discarded ones are torn down and collected so that peak RSS reflects one
// instance. It returns the median set-up time in seconds.
func medianSetUp(in *inputs, n int, logw io.Writer) (*env, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t := time.Now()
		e, err := setUp(in)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		fmt.Fprintf(logw, "bench: set-up %d: %.4f s\n", i, times[i])
		if i == n-1 {
			return e, median(times), nil
		}
		e.close()
		runtime.GC()
	}
}

// answer is what the oracle reads from one response, however it arrived.
type answer struct {
	Cache         string       `json:"cache"`
	PlanSignature string       `json:"planSignature"`
	CoverSize     int          `json:"coverSize"`
	Summary       summary      `json:"summary"`
	Baseline      summary      `json:"baseline"`
	Analyze       *analyzeView `json:"analyze"`
}

type analyzeView struct {
	Ops []opView `json:"ops"`
}

type opView struct {
	ActRows int64 `json:"actRows"`
	Root    bool  `json:"root"`
}

type summary struct {
	ResponseTime float64 `json:"responseTime"`
	Work         float64 `json:"work"`
}

// rootRows is the executed plan's measured root cardinality (-1 when the
// response carries no analyze report).
func (a *answer) rootRows() int64 {
	if a.Analyze != nil {
		for _, op := range a.Analyze.Ops {
			if op.Root {
				return op.ActRows
			}
		}
	}
	return -1
}

// scanAnswer extracts the oracle's fields without decoding the plan
// rendering, which is most of an /optimize body. Measured on plan_hit (five
// alternating 10 s pairs): json.Unmarshal into answer on every response puts
// cpu_ms_per_req at 0.36 against 0.30 (+21 %) and throughput_rps at 5360
// against 6460 (-17 %) — a fifth of the workload would be the load
// generator's decoder. The scan is only a shortcut: it reports false on
// anything it cannot read plainly (an escape in a string, a missing field)
// and the caller then decodes in full; and every 64th response is decoded in
// full anyway and must agree with the scan, so a response layout that puts
// another "cache" or "summary" key first fails the run (see checker.check).
func scanAnswer(body []byte, a *answer) bool {
	cache, ok1 := jsonScalar(body, 0, "cache")
	sig, ok2 := jsonScalar(body, 0, "planSignature")
	if !ok1 || !ok2 {
		return false
	}
	a.Cache, a.PlanSignature = string(cache), string(sig)
	if cover, ok := jsonScalar(body, 0, "coverSize"); ok {
		a.CoverSize, _ = strconv.Atoi(string(cover))
	}
	for _, f := range []struct {
		obj string
		dst *summary
	}{{"summary", &a.Summary}, {"baseline", &a.Baseline}} {
		at := bytes.Index(body, []byte(`"`+f.obj+`"`))
		if at < 0 {
			return false
		}
		rt, ok1 := jsonScalar(body, at, "responseTime")
		work, ok2 := jsonScalar(body, at, "work")
		if !ok1 || !ok2 {
			return false
		}
		var err1, err2 error
		f.dst.ResponseTime, err1 = strconv.ParseFloat(string(rt), 64)
		f.dst.Work, err2 = strconv.ParseFloat(string(work), 64)
		if err1 != nil || err2 != nil {
			return false
		}
	}
	return true
}

type sigKey struct {
	tmpl int
	k    float64
}

type rowKey struct {
	tmpl int
	lit  int64
}

type rowCount struct {
	rows int64
	n    int
}

// checker is the correctness oracle: the client checks every answer as it
// arrives.
type checker struct {
	in        *inputs
	attempted int
	failed    int
	errs      []string
	// sigs holds the one plan signature each (template, bound) may have.
	sigs map[sigKey]string
	// rows holds the root cardinality each (template, literal) produced,
	// compared against the independent join after the run.
	rows map[rowKey]rowCount
	// rtRatio holds served / baseline response time of each distinct
	// (template, bound) answered; plan_rt_ratio is their geometric mean.
	// Weighing pairs equally rather than by traffic keeps the metric about
	// the plans and not about which template the Zipf draw favours.
	rtRatio map[sigKey]float64
}

func newChecker(in *inputs) *checker {
	return &checker{in: in, sigs: map[sigKey]string{}, rows: map[rowKey]rowCount{}, rtRatio: map[sigKey]float64{}}
}

func (c *checker) planRTRatio() float64 {
	ratios := make([]float64, 0, len(c.rtRatio))
	for _, r := range c.rtRatio {
		ratios = append(ratios, r)
	}
	sort.Float64s(ratios) // map order must not reach the floating-point sum
	return geomean(ratios)
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check validates one HTTP response.
func (c *checker) check(r request, status int, body []byte, err error) {
	c.attempted++
	if err != nil {
		c.fail("template %d: %v", r.tmpl, err)
		return
	}
	if status != http.StatusOK {
		c.fail("template %d: HTTP %d: %.200s", r.tmpl, status, body)
		return
	}
	var a, s answer
	exec := c.in.parallel > 0 // the analyze report needs the decoder
	scanned := !exec && scanAnswer(body, &s)
	if scanned && c.attempted%64 != 0 {
		c.verify(r, &s)
		return
	}
	if err := json.Unmarshal(body, &a); err != nil {
		c.fail("template %d: undecodable response: %v", r.tmpl, err)
		return
	}
	if scanned && (s.Cache != a.Cache || s.PlanSignature != a.PlanSignature || s.CoverSize != a.CoverSize || s.Summary != a.Summary || s.Baseline != a.Baseline) {
		c.fail("template %d: field scan disagrees with the decoded response", r.tmpl)
		return
	}
	c.verify(r, &a)
}

// verify applies the oracle to one decoded answer (counted by the caller).
func (c *checker) verify(r request, a *answer) {
	if a.Cache != c.in.wantCache {
		c.fail("template %d: cache=%q, want %q", r.tmpl, a.Cache, c.in.wantCache)
		return
	}
	if a.PlanSignature == "" || a.Summary.ResponseTime <= 0 || a.Baseline.ResponseTime <= 0 || a.Baseline.Work <= 0 {
		c.fail("template %d: incomplete answer %+v", r.tmpl, *a)
		return
	}
	key := sigKey{r.tmpl, r.k}
	if prev, ok := c.sigs[key]; ok && prev != a.PlanSignature {
		c.fail("template %d k=%g: plan changed within the run: %s then %s", r.tmpl, r.k, prev, a.PlanSignature)
		return
	}
	c.sigs[key] = a.PlanSignature
	ratio := a.Summary.ResponseTime / a.Baseline.ResponseTime
	if r.k == 0 && ratio > 1+1e-9 {
		c.fail("template %d: unbounded plan slower than the work-optimal baseline (ratio %g)", r.tmpl, ratio)
		return
	}
	if c.in.parallel > 0 {
		rows := a.rootRows()
		rk := rowKey{r.tmpl, r.lit}
		if rows < 0 {
			c.fail("template %d: analyze report has no root operator", r.tmpl)
			return
		}
		if prev, ok := c.rows[rk]; ok && prev.rows != rows {
			c.fail("template %d literal %d: root rows changed within the run: %d then %d", r.tmpl, r.lit, prev.rows, rows)
			return
		}
		c.rows[rk] = rowCount{rows, c.rows[rk].n + 1}
	}
	c.rtRatio[key] = ratio
}

// window is one stretch of the timed section: whole blocks of requests, at
// least windowSeconds long, with what tells whether the machine was left
// alone meanwhile.
type window struct {
	first, n    int // requests [first, first+n) of the run
	wallS, cpuS float64
	// stealS is the CPU time the hypervisor withheld from the machine's
	// vCPUs during the window; calibMS the slower of the two runs of the
	// calibration kernel that bracket it.
	stealS, calibMS float64
}

// loadResult is one closed-loop measurement.
type loadResult struct {
	check    *checker
	latMS    []float64 // client-side latency of every request
	selfUS   []float64 // client time per request spent outside the HTTP call
	bytes    []float64 // response body sizes
	windows  []window
	calibMin float64 // the fastest calibration run: the machine undisturbed
	alloc    float64 // bytes allocated over the section
	// rssMB is the resident-set high-water mark once the section has run for
	// -seconds: taken at its end it would grow with however long the section
	// had to be stretched (plan_miss fills the plan cache as it goes).
	rssMB float64
}

// The timed section is cut into windows, and the end-to-end timings are taken
// over the quiet ones. This machine is a few vCPUs of a shared host whose
// other tenants take the CPU away for a minute or two at a time (README,
// "Spread"): whole-run timings of the same code then differ by a factor of
// two, which no bound survives. Interference only ever slows a window, and
// it is read from two instruments of its own rather than from the timings it
// would bias: the hypervisor's steal counter, and a fixed calibration kernel
// run between windows (a busy sibling hyperthread slows it without any
// steal being counted).
const (
	// windowSeconds is the least length of one window.
	windowSeconds = 0.5
	// quietSteal is the share of the machine's CPU time the hypervisor may
	// withhold during a quiet window (one 10 ms tick in a window on 2 vCPUs).
	quietSteal = 0.01
	// quietCalib is how much slower than the run's fastest the calibration
	// kernel may run on either side of a quiet window.
	quietCalib = 1.10
	// maxStretch bounds the section: it runs until it holds -seconds of
	// quiet windows, or for maxStretch × -seconds.
	maxStretch = 2
)

// disturbance scores a window; quiet windows score at most 1.
func (lr *loadResult) disturbance(w window) float64 {
	steal := w.stealS / (w.wallS * float64(runtime.NumCPU())) / quietSteal
	calib := (w.calibMS/lr.calibMin - 1) / (quietCalib - 1)
	return max(steal, calib)
}

// quiet picks the windows the end-to-end timings are taken over: the quiet
// ones or, when a disturbance outlasted the section, the least disturbed
// quarter of what was asked for.
func (lr *loadResult) quiet(seconds float64) []window {
	ws := append([]window(nil), lr.windows...)
	sort.SliceStable(ws, func(i, j int) bool { return lr.disturbance(ws[i]) < lr.disturbance(ws[j]) })
	var wallS float64
	for i, w := range ws {
		if lr.disturbance(w) > 1 && wallS >= seconds/4 {
			return ws[:i]
		}
		wallS += w.wallS
	}
	return ws
}

// load drives the service closed-loop with one client: the next generated
// request is sent only after the previous answer arrived and was checked.
// Windows end on block boundaries, so each holds the same mix of requests.
func (e *env) load(seconds float64) *loadResult {
	res := &loadResult{check: newChecker(e.in)}
	st := newStream(e.in)
	var body, resp []byte
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calib := calibMS(windowCalib)
	res.calibMin = calib
	var quietS float64
	start := time.Now()
	for end := start.Add(time.Duration(maxStretch * seconds * float64(time.Second))); quietS < seconds && time.Now().Before(end); {
		w := window{first: len(res.latMS), calibMS: calib}
		cpu0, steal0 := cpuSeconds(), stealSeconds()
		wStart := time.Now()
		wEnd := wStart.Add(time.Duration(min(windowSeconds, seconds) * float64(time.Second)))
		t0 := wStart
		for t0.Before(wEnd) || w.n%e.in.block != 0 {
			r := st.next()
			body = e.in.appendBody(body[:0], r, e.version)
			t1 := time.Now()
			var status int
			var err error
			status, resp, err = e.post(e.in.path, body, resp)
			t2 := time.Now()
			res.check.check(r, status, resp, err)
			res.latMS = append(res.latMS, ms(t2.Sub(t1)))
			res.bytes = append(res.bytes, float64(len(resp)))
			w.n++
			done := time.Now()
			res.selfUS = append(res.selfUS, us(t1.Sub(t0)+done.Sub(t2)))
			t0 = done
		}
		w.wallS, w.cpuS, w.stealS = t0.Sub(wStart).Seconds(), cpuSeconds()-cpu0, stealSeconds()-steal0
		if res.rssMB == 0 && t0.Sub(start).Seconds() >= seconds {
			res.rssMB = peakRSSMB()
		}
		calib = calibMS(windowCalib)
		w.calibMS = max(w.calibMS, calib)
		res.calibMin = min(res.calibMin, calib)
		res.windows = append(res.windows, w)
		if res.disturbance(w) <= 1 {
			quietS += w.wallS
		}
	}
	runtime.ReadMemStats(&m1)
	res.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	return res
}

// timings are the end-to-end timings over a set of windows.
type timings struct {
	requests            int
	wallS, cpuS, stealS float64
	p50, p90            float64
}

func (lr *loadResult) timings(ws []window) timings {
	var t timings
	var lat []float64
	for _, w := range ws {
		t.requests += w.n
		t.wallS += w.wallS
		t.cpuS += w.cpuS
		t.stealS += w.stealS
		lat = append(lat, lr.latMS[w.first:w.first+w.n]...)
	}
	sort.Float64s(lat)
	t.p50, t.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
	return t
}

func (t timings) String() string {
	n := float64(t.requests)
	return fmt.Sprintf("%d requests in %.1f s, %.2f req/s, p50 %.4f ms, p90 %.4f ms, cpu %.4f ms/req, steal %.2f %% of the machine",
		t.requests, t.wallS, n/t.wallS, t.p50, t.p90, t.cpuS*1000/n, 100*t.stealS/(t.wallS*float64(runtime.NumCPU())))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints — the driver's
// contract — and what the full-set mode collects from its children.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEndToEnd is the untraced run: median set-up, the closed-loop timed
// section, the correctness oracle, and the end-to-end metrics — each timing
// over all requests of the section's quiet windows.
func runEndToEnd(in *inputs, seconds float64, logw io.Writer) (*result, error) {
	e, setupS, err := medianSetUp(in, setUpRepeats, logw)
	if err != nil {
		return nil, err
	}
	defer e.close()
	lr := e.load(seconds)
	check := lr.check
	if in.parallel > 0 {
		checkRows(check, newOracleDB(e.cat))
	}
	for _, msg := range check.errs {
		fmt.Fprintln(logw, "oracle:", msg)
	}
	kept := lr.timings(lr.quiet(seconds))
	fmt.Fprintf(logw, "bench: whole section: %v\nbench: quiet windows: %v\n", lr.timings(lr.windows), kept)
	return &result{
		Correct:   check.failed == 0,
		Attempted: check.attempted,
		Failed:    check.failed,
		Metrics: map[string]metric{
			"setup_s":          {setupS, "s"},
			"throughput_rps":   {float64(kept.requests) / kept.wallS, "req/s"},
			"latency_p50_ms":   {kept.p50, "ms"},
			"latency_p90_ms":   {kept.p90, "ms"},
			"cpu_ms_per_req":   {kept.cpuS * 1000 / float64(kept.requests), "ms"},
			"alloc_kb_per_req": {lr.alloc / 1024 / float64(check.attempted), "KB"},
			"peak_rss_mb":      {lr.rssMB, "MB"},
			"plan_rt_ratio":    {check.planRTRatio(), "ratio"},
		},
	}, nil
}

// setUpRepeats is how many times a run sets the system up; setup_s is the
// median, so one slow start does not decide it — the first set-up of a
// process is the slowest (README, "Spread").
const setUpRepeats = 3
