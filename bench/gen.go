package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Workload names — the contract BENCHMARK.json and every later performance
// claim refer to.
const (
	planHit   = "plan_hit"
	planMiss  = "plan_miss"
	execLocal = "exec_local"
	execDist  = "exec_dist"
)

var workloadNames = []string{planHit, planMiss, execLocal, execDist}

// scale sizes the generated inputs. fullScale is what the benchmark
// measures; bench_test.go shrinks it so `go test` covers the harness in
// seconds with the O(n²) engine.ReferenceJoin as a second oracle.
type scale struct {
	// planCardLo/Hi bound the log-uniform relation cardinalities of the
	// plan_* catalogs (statistics only; nothing is generated from them).
	planCardLo, planCardHi float64
	// hitTemplates is the plan_hit working set (must fit the 512-entry plan
	// cache); hitSizes the relation counts its templates cycle through.
	hitTemplates int
	hitSizes     []int
	// missBlocks × 16 is the plan_miss template population. It must exceed
	// the plan cache several times over so that even a run fast enough to
	// wrap around the population keeps missing (cyclic access over more
	// keys than an LRU holds never hits). missSmall/missLarge are the
	// relation counts of the 75 % and 25 % clusters.
	missBlocks           int
	missSmall, missLarge int
	// execCard is the base cardinality of the exec_* relations.
	execCard int64
}

// fullScale: plan templates stay index-free and within a 4× cardinality
// range because those two knobs swing search time by an order of magnitude
// between two draws (an index on every relation makes a 5-relation search
// 15× slower); held fixed, a 5-relation search is ~30 ms and a 6-relation
// one ~150 ms through the service.
var fullScale = scale{
	planCardLo: 50_000, planCardHi: 200_000,
	hitTemplates: 64, hitSizes: []int{4, 5, 4, 5, 6, 4, 5, 4},
	missBlocks: 64, missSmall: 5, missLarge: 6,
	execCard: 60_000,
}

// template is one query shape over its own relations. The service only ever
// sees sql() text; the structured fields exist for the independent oracle.
type template struct {
	shape string
	rels  []string
	// joins are equality predicates {left rel, left col, right rel, right col}.
	joins [][4]string
	// selRel.selCol = <literal> is the template's selection (none when
	// selRel is empty). With selNDV > 0 every request draws a fresh literal
	// below it; otherwise every request uses lit.
	selRel, selCol string
	selNDV, lit    int64
}

func (t *template) sql(lit int64) string {
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	b.WriteString(strings.Join(t.rels, ", "))
	b.WriteString(" WHERE ")
	for i, j := range t.joins {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(j[0] + "." + j[1] + " = " + j[2] + "." + j[3])
	}
	if t.selRel != "" {
		b.WriteString(" AND " + t.selRel + "." + t.selCol + " = " + strconv.FormatInt(lit, 10))
	}
	return b.String()
}

// inputs is everything one workload run feeds the service, derived from the
// seed alone.
type inputs struct {
	workload  string
	seed      int64
	ddl       string
	templates []template
	// warm lists the templates issued once during set-up: the whole working
	// set for the hit workloads, a reserved block at the tail of the
	// population for plan_miss (so connections and lazy initialisation are
	// paid before the timed section without pre-caching a timed template).
	warm []int
	// timed is the number of leading templates the timed streams draw from.
	timed int
	// procs is the run's GOMAXPROCS: nproc, except for plan_hit.
	procs     int
	path      string
	wantCache string
	// bounds are the §2 k values requests draw from (0 = unbounded).
	bounds []float64
	// sequential makes streams walk the templates in order (the generator
	// already shuffled them block by block) instead of drawing Zipf ranks.
	// block is the length of one composition-complete stretch of such a
	// sequence (1 for Zipf draws); the timed section ends on its boundary.
	sequential bool
	block      int
	parallel   int // analyzeParallel for exec workloads
}

// tag derives a short seed-dependent identifier prefix, so relation names —
// and with them query fingerprints, generated data and hash partitions —
// differ between seeds.
func tag(rng *rand.Rand) string {
	return string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))})
}

// gen carries the two random sources of input generation. base is seeded by
// the workload alone and draws what decides how much work a template is —
// cardinalities and disks; rng is seeded by -seed and draws everything else:
// names, a ±2 % jitter on every cardinality, literals, bounds, order. So ten
// seeds give ten different inputs that cost the same to within the jitter
// (a search's cost swings 4× with the statistics it is given), and what
// spread remains between seeds is the machine's.
type gen struct {
	base, rng *rand.Rand
	sc        scale
	ddl       strings.Builder
}

func (g *gen) jitter(card float64) int64 {
	return max(int64(card*(0.98+0.04*g.rng.Float64())), 8)
}

// planRelation appends the DDL of one statistics-only relation with the
// id/fk/payload columns of query.Generate and returns its payload NDV.
func (g *gen) planRelation(name string, pos int) int64 {
	lo, hi := math.Log(g.sc.planCardLo), math.Log(g.sc.planCardHi)
	card := g.jitter(math.Exp(lo + g.base.Float64()*(hi-lo)))
	fmt.Fprintf(&g.ddl, "relation %s card=%d pages=%d disk=%d\n", name, card, max(card*80/8192, 1), (pos+g.base.Intn(4))%4)
	fmt.Fprintf(&g.ddl, "column %s.id ndv=%d width=8\n", name, card)
	fmt.Fprintf(&g.ddl, "column %s.fk ndv=%d width=8\n", name, max(card/10, 1))
	fmt.Fprintf(&g.ddl, "column %s.payload ndv=%d width=64\n", name, max(card/100, 1))
	return max(card/100, 1)
}

// planTemplate generates one n-relation template of the given shape over
// fresh relations named prefix_0..prefix_{n-1}, appending their DDL.
func (g *gen) planTemplate(prefix, shape string, n int) template {
	t := template{shape: shape, selCol: "payload"}
	for i := 0; i < n; i++ {
		name := prefix + "_" + strconv.Itoa(i)
		ndv := g.planRelation(name, i)
		if i == 0 {
			t.selRel, t.selNDV = name, ndv
		}
		t.rels = append(t.rels, name)
	}
	join := func(i, j int) { t.joins = append(t.joins, [4]string{t.rels[i], "id", t.rels[j], "fk"}) }
	switch shape {
	case "chain", "cycle":
		for i := 0; i+1 < n; i++ {
			join(i, i+1)
		}
		if shape == "cycle" {
			join(n-1, 0)
		}
	case "star":
		for i := 1; i < n; i++ {
			join(0, i)
		}
	case "clique":
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				join(i, j)
			}
		}
	}
	return t
}

// missBlock is the composition of every plan_miss block: per shape three
// small templates and one large.
const missBlock = 16

// generate builds a workload's inputs from the seed.
func generate(workload string, seed int64, sc scale, nproc int) (*inputs, error) {
	g := &gen{
		base: rand.New(rand.NewSource(int64(len(workload))*1_000_003 + 11)),
		rng:  rand.New(rand.NewSource(seed*7919 + int64(len(workload)))),
		sc:   sc,
	}
	in := &inputs{workload: workload, seed: seed, procs: nproc, block: 1, path: "/optimize", wantCache: "hit", bounds: []float64{0}}
	pre := tag(g.rng)
	switch workload {
	case planHit:
		// Rank r of the Zipf draw is template r, and shape and size are a
		// fixed function of the rank, so every seed puts the same mix under
		// the same traffic share.
		shapes := []string{"chain", "star", "cycle"}
		for r := 0; r < sc.hitTemplates; r++ {
			n := sc.hitSizes[(r/len(shapes))%len(sc.hitSizes)]
			in.templates = append(in.templates, g.planTemplate(pre+strconv.Itoa(r), shapes[r%len(shapes)], n))
			in.warm = append(in.warm, r)
		}
		in.timed = sc.hitTemplates
		// One request is a third of a millisecond handed between five
		// goroutines of net/http. On a second vCPU that is mostly idle, every
		// hand-off wakes it, and a shared host makes a waking vCPU wait: the
		// workload then measures the hypervisor's scheduler (README, "Spread").
		in.procs = 1
		in.bounds = []float64{0, 1.2, 1.5, 2, 4}
	case planMiss:
		// Blocks of 16 templates with one composition, generated in a fixed
		// order (so block b slot i has the same statistics for every seed)
		// and then shuffled within the block by the seed. The timed section
		// ends on a block boundary, so every run holds the same mix. One
		// extra block is reserved for set-up warm-up.
		shapes := []string{"chain", "star", "cycle", "clique"}
		for blk := 0; blk <= sc.missBlocks; blk++ {
			block := make([]template, 0, missBlock)
			for _, shape := range shapes {
				for _, n := range []int{sc.missSmall, sc.missSmall, sc.missSmall, sc.missLarge} {
					block = append(block, g.planTemplate(pre+strconv.Itoa(len(in.templates)+len(block)), shape, n))
				}
			}
			g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			if blk == sc.missBlocks {
				for i := range block {
					in.warm = append(in.warm, len(in.templates)+i)
				}
			}
			in.templates = append(in.templates, block...)
		}
		in.timed = sc.missBlocks * missBlock
		in.block = missBlock
		in.wantCache = "miss"
		in.sequential = true
	case execLocal, execDist:
		in.templates = g.execTemplates(pre)
		for i := range in.templates {
			in.warm = append(in.warm, i)
		}
		in.timed = len(in.templates)
		in.block = len(in.templates)
		in.sequential = true
		in.parallel = nproc
		in.path = "/explain?analyze=1"
		if workload == execDist {
			in.path += "&distributed=1"
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	in.ddl = g.ddl.String()
	return in, nil
}

// execTemplates generates the 8 executed templates: 3- and 4-relation chains
// over c1..c4 and stars over hub h with satellites s1..s3, half of them with
// a selection on a 4-valued flag column. The selection's literal is drawn
// once per template, not per request: on a plan-cache hit /explain?analyze=1
// executes the cached query instance, literal included, so a fresh literal
// would be answered with the first literal's rows (README, "Findings") and
// the benchmark may only hold operations that succeed. Every join is
// foreign key → key with matching NDVs (fan-out ≈ 1). Cardinalities are a
// fixed pattern around sc.execCard with the seeded jitter: the seed changes
// names and therefore all generated values, but not how much data a run
// joins.
func (g *gen) execTemplates(pre string) []template {
	b, rng := &g.ddl, g.rng
	card := func(f float64) int64 { return g.jitter(float64(g.sc.execCard) * f) }
	c := []string{pre + "c1", pre + "c2", pre + "c3", pre + "c4"}
	cc := []int64{card(1.0), card(0.9), card(1.1), card(0.8)}
	for i, name := range c {
		next := cc[(i+1)%len(cc)]
		fmt.Fprintf(b, "relation %s card=%d pages=%d disk=%d\n", name, cc[i], max(cc[i]/100, 1), i%4)
		fmt.Fprintf(b, "column %s.id ndv=%d\ncolumn %s.fk ndv=%d\ncolumn %s.flag ndv=4\n", name, cc[i], name, next, name)
	}
	h := pre + "h"
	s := []string{pre + "s1", pre + "s2", pre + "s3"}
	hc, sc3 := card(1.2), []int64{card(0.9), card(1.0), card(1.1)}
	fmt.Fprintf(b, "relation %s card=%d pages=%d disk=0\ncolumn %s.id ndv=%d\n", h, hc, max(hc/100, 1), h, hc)
	for i := range s {
		fmt.Fprintf(b, "column %s.fk%d ndv=%d\n", h, i+1, sc3[i])
	}
	fmt.Fprintf(b, "column %s.flag ndv=4\n", h)
	for i, name := range s {
		fmt.Fprintf(b, "relation %s card=%d pages=%d disk=%d\n", name, sc3[i], max(sc3[i]/100, 1), (i+1)%4)
		fmt.Fprintf(b, "column %s.id ndv=%d\ncolumn %s.v ndv=100\n", name, sc3[i], name)
	}
	chain := func(rels []string, sel bool) template {
		t := template{shape: "chain", rels: rels}
		for i := 0; i+1 < len(rels); i++ {
			t.joins = append(t.joins, [4]string{rels[i], "fk", rels[i+1], "id"})
		}
		if sel {
			t.selRel, t.selCol, t.lit = rels[0], "flag", rng.Int63n(4)
		}
		return t
	}
	star := func(sats []int, sel bool) template {
		t := template{shape: "star", rels: []string{h}}
		for _, i := range sats {
			t.rels = append(t.rels, s[i])
			t.joins = append(t.joins, [4]string{h, "fk" + strconv.Itoa(i+1), s[i], "id"})
		}
		if sel {
			t.selRel, t.selCol, t.lit = h, "flag", rng.Int63n(4)
		}
		return t
	}
	return []template{
		chain(c[:3], false), chain(c, false), chain(c[1:], true), chain(c, true),
		star([]int{0, 1}, false), star([]int{0, 1, 2}, false), star([]int{1, 2}, true), star([]int{0, 1, 2}, true),
	}
}

// request is one generated call: template, literal and §2 bound.
type request struct {
	tmpl int
	lit  int64
	k    float64
}

// stream is the client's deterministic request sequence.
type stream struct {
	in   *inputs
	rng  *rand.Rand
	zipf *rand.Zipf
	pos  int
}

func newStream(in *inputs) *stream {
	rng := rand.New(rand.NewSource(in.seed*104729 + 17))
	s := &stream{in: in, rng: rng}
	if !in.sequential {
		s.zipf = rand.NewZipf(rng, 1.1, 1, uint64(in.timed-1))
	}
	return s
}

func (s *stream) next() request {
	var r request
	if s.in.sequential {
		r.tmpl = s.pos % s.in.timed
		s.pos++
	} else {
		r.tmpl = int(s.zipf.Uint64())
	}
	if t := &s.in.templates[r.tmpl]; t.selNDV > 0 {
		r.lit = s.rng.Int63n(t.selNDV)
	} else {
		r.lit = t.lit
	}
	r.k = s.in.bounds[s.rng.Intn(len(s.in.bounds))]
	return r
}

// appendBody renders the request's JSON body. Generated SQL and catalog
// versions contain nothing JSON would escape.
func (in *inputs) appendBody(buf []byte, r request, version string) []byte {
	buf = append(buf, `{"query":"`...)
	buf = append(buf, in.templates[r.tmpl].sql(r.lit)...)
	buf = append(buf, `","catalog":"`...)
	buf = append(buf, version...)
	buf = append(buf, '"')
	if r.k > 0 {
		buf = append(buf, `,"k":`...)
		buf = strconv.AppendFloat(buf, r.k, 'g', -1, 64)
	}
	if in.parallel > 0 {
		buf = append(buf, `,"analyzeParallel":`...)
		buf = strconv.AppendInt(buf, int64(in.parallel), 10)
	}
	return append(buf, '}')
}

// sequenceHash fingerprints the inputs: the DDL plus the first n requests of
// the stream. Same seed → same hash, which bench_test.go asserts.
func (in *inputs) sequenceHash(n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(in.ddl))
	var buf []byte
	s := newStream(in)
	for i := 0; i < n; i++ {
		buf = in.appendBody(buf[:0], s.next(), "")
		h.Write(buf)
	}
	return h.Sum64()
}
