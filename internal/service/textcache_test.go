package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"paropt/internal/catalog"
	"paropt/internal/parser"
	"paropt/internal/query"
)

// templateTexts renders q as SELECT text with two selections whose literals
// are lits[0] and lits[1], the first glued to the AND after it when glue is
// set ("= 5AND ..." scans as a number and a keyword).
func templateTexts(q *query.Query, lits [2]string, glue bool) string {
	var preds []string
	for _, j := range q.Joins {
		preds = append(preds, j.String())
	}
	last := q.Relations[len(q.Relations)-1]
	and := " AND "
	if glue {
		and = "AND "
	}
	return "SELECT * FROM " + strings.Join(q.Relations, ", ") + " WHERE " + strings.Join(preds, " AND ") +
		" AND " + q.Relations[0] + ".payload = " + lits[0] + and + last + ".fk = " + lits[1]
}

// templateLiterals are the literal pairs every template is served with:
// ordinary, negative, int64's extremes, one past them, a bare minus and
// leading zeros. The ones outside int64 make a text that is not a template.
var templateLiterals = [][2]string{
	{"7", "0"}, {"-42", "13"}, {"9223372036854775807", "-9223372036854775808"},
	{"9223372036854775808", "1"}, {"2", "-9223372036854775809"}, {"-", "3"},
	{"0007", "-0"}, {"5", "6"},
}

// TestTemplateHitEqualsFreshParse: whatever the text cache answers — a
// template hit bound to the request's literals, a recorded failure or a miss
// — equals what a fresh ParseQuery + Fingerprint + cacheKey of the same text
// gives: the same query (Selections included), fingerprint, plan-cache key
// and error text. Shapes × seeds 1–8, each text against two catalogs of the
// same relations and one that lacks a relation, before and after a
// placement install.
func TestTemplateHitEqualsFreshParse(t *testing.T) {
	s := newTestService(t, nil)
	if _, err := s.RegisterWorker("127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	type cat struct {
		c       *catalog.Catalog
		version string
	}
	check := func(c cat, text string) {
		t.Helper()
		want, werr := parser.ParseQuery(text, c.c)
		r, err := s.resolve(&OptimizeRequest{Query: text, Catalog: c.version})
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%q: resolve err %v, fresh parse err %v", text, err, werr)
		}
		if werr != nil {
			return
		}
		got := r.q
		if got == nil {
			got = parser.Bind(r.tmpl, text)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: resolved query\n%#v\nfresh parse\n%#v", text, got, want)
		}
		if fp := query.Fingerprint(want); r.fp != fp || r.key != s.cacheKey(fp, c.version) {
			t.Fatalf("%q: fingerprint/key %s / %s, fresh %s / %s", text, r.fp, r.key, fp, s.cacheKey(fp, c.version))
		}
	}
	for _, shape := range []query.Shape{query.Chain, query.Star, query.Cycle, query.Clique} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := query.DefaultGenConfig()
			cfg.Relations, cfg.Shape, cfg.Seed = 4, shape, seed
			c1, q := query.Generate(cfg)
			cfg.Seed += 100
			c2, _ := query.Generate(cfg)
			cfg.Relations = 3
			c3, _ := query.Generate(cfg)
			cats := []cat{{c1, s.RegisterCatalog(c1)}, {c2, s.RegisterCatalog(c2)}, {c3, s.RegisterCatalog(c3)}}
			for round := 0; round < 2; round++ {
				if round == 1 {
					if _, err := s.InstallPlacement(cats[0].version, nil); err != nil {
						t.Fatal(err)
					}
				}
				for _, lits := range templateLiterals {
					for _, glue := range []bool{false, true} {
						for _, c := range cats {
							text := templateTexts(q, lits, glue)
							check(c, text)
							check(c, text) // the repeat is a hit of either kind
						}
					}
				}
			}
		}
	}
	if s.met.TextCacheHits.Load("template") == 0 || s.met.TextCacheHits.Load("error") == 0 {
		t.Fatalf("text cache answered %d templates and %d failures; want both kinds exercised",
			s.met.TextCacheHits.Load("template"), s.met.TextCacheHits.Load("error"))
	}
	// A text that is not a template fails from the cache on its repeat too.
	overflow, failures := chainSQL(3, 1)+"9223372036854775808", s.met.TextCacheHits.Load("error")
	for i := 0; i < 2; i++ {
		if _, err := s.resolve(&OptimizeRequest{Query: overflow}); err == nil || !strings.Contains(err.Error(), "bad integer") {
			t.Fatalf("%q: err %v, want a bad integer", overflow, err)
		}
	}
	if got := s.met.TextCacheHits.Load("error") - failures; got != 1 {
		t.Fatalf("a repeated text that is not a template: %d failures answered from the cache, want 1", got)
	}
}

// TestHitResolveAllocatesNothing: once a template is in the text cache,
// resolving another instance of it — other literals, a placement installed
// since — parses, fingerprints and builds nothing.
func TestHitResolveAllocatesNothing(t *testing.T) {
	s := newTestService(t, nil)
	if _, err := s.Optimize(context.Background(), OptimizeRequest{Query: chainSQL(6, 1)}); err != nil {
		t.Fatal(err)
	}
	req := OptimizeRequest{Query: chainSQL(6, 12345)}
	resolve := func() {
		if r, err := s.resolve(&req); err != nil || r.tmpl == nil {
			t.Fatalf("want a template hit, got %+v, %v", r, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, resolve); allocs != 0 {
		t.Fatalf("a template hit allocates %.0f times in resolve, want 0", allocs)
	}
	if _, err := s.RegisterWorker("127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallPlacement("", nil); err != nil {
		t.Fatal(err)
	}
	resolve() // rebuilds the key for the new placement once
	if allocs := testing.AllocsPerRun(100, resolve); allocs != 0 {
		t.Fatalf("a template hit after a placement install allocates %.0f times, want 0", allocs)
	}
}

// TestLongInvalidQueriesAreNotCached: a failure is remembered only for a
// text of at most a few KiB. 64 distinct 1 MiB queries whose error message
// quotes a 1 MiB token must leave the heap within 8 MiB of where it was;
// caching them would keep 128 MiB of texts and messages. Tracing is on: each
// retained trace keeps its request's error message, cut to a bounded length.
func TestLongInvalidQueriesAreNotCached(t *testing.T) {
	s := newTestService(t, nil)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < 64; i++ {
		bad := fmt.Sprintf("SELECT * FROM R1 %s%d", strings.Repeat("x", 1<<20), i)
		if _, err := s.Optimize(context.Background(), OptimizeRequest{Query: bad}); err == nil {
			t.Fatal("want a parse error")
		}
	}
	grew := int64(heap()) - int64(before)
	t.Logf("64 failed 1 MiB queries: heap %+d B", grew)
	if grew > 8<<20 {
		t.Fatalf("64 failed 1 MiB queries left the heap %d MiB larger, want < 8", grew>>20)
	}
	if n := s.texts.Len(); n != 0 {
		t.Fatalf("%d long texts cached, want 0", n)
	}
}

// TestTraceKeepsABoundedParseError: a parse error quoting a 1 MiB token
// reaches the client whole, but the request's retained trace keeps about a
// KiB of it.
func TestTraceKeepsABoundedParseError(t *testing.T) {
	s := newTestService(t, nil)
	bad := "SELECT * FROM R1 " + strings.Repeat("x", 1<<20)
	_, err := s.Optimize(context.Background(), OptimizeRequest{Query: bad})
	if err == nil || len(err.Error()) < 1<<20 {
		t.Fatalf("want a parse error quoting the token, got %d bytes", len(fmt.Sprint(err)))
	}
	traces := s.Tracer().Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	if msg := traces[0].JSON().Root.Error; msg == "" || len(msg) > 2<<10 {
		t.Fatalf("trace keeps a %d-byte error message, want 1..%d", len(msg), 2<<10)
	}
}
