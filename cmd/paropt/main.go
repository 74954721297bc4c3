// Command paropt optimizes a workload query and explains the chosen plan.
//
// Usage:
//
//	paropt [-workload portfolio|chain|star|cycle|clique] [-n 5] [-seed 1]
//	       [-alg podp|podp-bushy|work|naive-rt|brute|brute-bushy|two-phase|anneal]
//	       [-cpus 4] [-disks 4] [-k 0] [-costbenefit 0] [-simulate] [-analyze]
//	       [-why] [-profile]
//	       [-schema schema.ddl -query "SELECT ... FROM ... WHERE ..."]
//	paropt replay [-addr http://host:7077 | -workload ...] [-strict] <log.jsonl>
//	paropt workload [-top 20] [-by traffic|latency|drift] <log.jsonl>
//	paropt top [-addr http://host:7077] [-interval 2s] [-once] [-cancel id]
//	paropt report [-fast] [section…]
//	paropt calibrate [-scale 100000] [-seed 1]
//
// The replay and workload subcommands consume the JSONL query log a daemon
// writes with -query-log: replay re-executes the recorded requests (against
// a daemon or in-process) and reports plan-choice and latency deltas;
// workload renders the per-template traffic/latency/drift report offline.
// top polls a daemon's /debug/queries and renders the in-flight queries with
// live per-operator progress and model-predicted ETAs; -cancel sends a
// DELETE for one query and exits. report regenerates the paper-vs-measured
// experiments (the source of EXPERIMENTS.md), all of them or the named
// sections; calibrate fits the cost-model parameters to this machine.
//
// -k sets the §2 throughput-degradation factor (0 = unbounded);
// -costbenefit sets the cost–benefit ratio bound instead. With -schema and
// -query, the catalog and query are parsed from text instead of a built-in
// workload (see internal/parser for the grammar). -analyze executes the
// chosen plan on synthetic data (seeded by -seed) and prints an EXPLAIN
// ANALYZE style table joining the cost model's predicted (tf, tl)
// descriptors against the measured ones (text mode only). -profile prints
// the search's record as its one table: a row per DP layer, then the chosen
// plan and the totals (the text /explain?trace=1 returns as searchTrace).
package main

import (
	"flag"
	"fmt"
	"os"

	"paropt"
	"paropt/internal/machine"
	"paropt/internal/parser"
	"paropt/internal/repro"
	"paropt/internal/search"
	"paropt/internal/storage"
)

func main() {
	// Subcommand dispatch; anything else is the classic flag-driven
	// one-shot optimizer invocation.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "replay":
			replayMain(os.Args[2:])
			return
		case "workload":
			workloadMain(os.Args[2:])
			return
		case "top":
			topMain(os.Args[2:])
			return
		case "report":
			reportMain(os.Args[2:])
			return
		case "calibrate":
			calibrateMain(os.Args[2:])
			return
		}
	}
	wl := flag.String("workload", "portfolio", "portfolio, tpch, chain, star, cycle or clique")
	schemaFile := flag.String("schema", "", "schema DDL file (overrides -workload; requires -query)")
	queryText := flag.String("query", "", "SQL-ish SELECT text (requires -schema)")
	n := flag.Int("n", 5, "relation count for generated workloads")
	seed := flag.Int64("seed", 1, "workload seed")
	alg := flag.String("alg", "podp", repro.AlgorithmFlags())
	cpus := flag.Int("cpus", 4, "machine CPUs")
	disks := flag.Int("disks", 4, "machine disks")
	beam := flag.Int("beam", 0, "cap cover sets at this many plans (0 = exact search)")
	k := flag.Float64("k", 0, "throughput-degradation factor (0 = unbounded)")
	cb := flag.Float64("costbenefit", 0, "cost-benefit ratio bound (0 = off)")
	simulate := flag.Bool("simulate", false, "also run the plan on the machine simulator")
	timeline := flag.Bool("timeline", false, "with -simulate, print a Gantt timeline of the execution")
	dot := flag.Bool("dot", false, "print the operator tree as Graphviz DOT")
	why := flag.Bool("why", false, "print plan provenance: the chosen plan's cost breakdown plus rejected frontier alternatives with loss reasons")
	profile := flag.Bool("profile", false, "print the search profile: one row per DP layer (time, candidates kept, prunes by reason), then the chosen plan and the totals")
	jsonOut := flag.Bool("json", false, "print the plan as JSON instead of text")
	analyze := flag.Bool("analyze", false, "execute the plan on deterministic synthetic data and print per-operator predicted-vs-actual (tf, tl) descriptors")
	analyzePar := flag.Int("analyze-parallel", 0, "cap on each join's annotated clone degree for -analyze (0 = machine CPUs)")
	flag.Parse()

	var cat *paropt.Catalog
	var q *paropt.Query
	var err error
	if *schemaFile != "" || *queryText != "" {
		cat, q, err = parseInput(*schemaFile, *queryText)
	} else {
		cat, q, err = buildWorkload(*wl, *n, *seed, *disks)
	}
	if err != nil {
		fatal(err)
	}
	algorithm, err := repro.ParseAlgorithm(*alg)
	if err != nil {
		fatal(err)
	}
	run := paropt.Run{Algorithm: algorithm}
	switch {
	case *k > 0:
		run.Bound = search.ThroughputDegradation{K: *k}
	case *cb > 0:
		run.Bound = search.CostBenefit{K: *cb}
	}
	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{
		Machine:  machine.Config{CPUs: *cpus, Disks: *disks, Networks: 1},
		CoverCap: *beam,
	})
	if err != nil {
		fatal(err)
	}
	p, err := paropt.Optimize(opt, run)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		raw, err := opt.ExplainJSON(p)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
		return
	}
	fmt.Print(opt.Explain(p))
	if *why {
		fmt.Println()
		fmt.Print(opt.PlanProvenance(p, run.Bound).Text())
	}
	if *profile {
		fmt.Println()
		fmt.Print(p.Stats.Table(&search.Candidate{Node: p.Tree, Desc: p.Desc}))
	}
	if *dot {
		fmt.Println()
		fmt.Print(p.Op.Dot(q.Name))
	}

	if *simulate {
		res, err := paropt.Simulate(p.Op, opt.Mod)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nsimulated execution: rt=%.2f work=%.2f utilization=%.1f%% (%d events)\n",
			res.RT, res.Work, 100*res.Utilization(), res.Steps)
		fmt.Printf("model vs simulator rt: %.2f vs %.2f (%+.1f%%)\n",
			p.RT(), res.RT, 100*(p.RT()-res.RT)/res.RT)
		if *timeline {
			fmt.Println()
			fmt.Print(res.Timeline(64))
		}
	}

	if *analyze {
		par := *analyzePar
		if par <= 0 {
			par = *cpus
		}
		rep, _, err := opt.Analyze(p, storage.NewDatabase(cat, *seed), par)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(rep.Table())
	}
}

func parseInput(schemaFile, queryText string) (*paropt.Catalog, *paropt.Query, error) {
	if schemaFile == "" || queryText == "" {
		return nil, nil, fmt.Errorf("-schema and -query must be used together")
	}
	src, err := os.ReadFile(schemaFile)
	if err != nil {
		return nil, nil, err
	}
	cat, err := parser.ParseSchema(string(src))
	if err != nil {
		return nil, nil, err
	}
	q, err := parser.ParseQuery(queryText, cat)
	if err != nil {
		return nil, nil, err
	}
	return cat, q, nil
}

func buildWorkload(name string, n int, seed int64, disks int) (*paropt.Catalog, *paropt.Query, error) {
	switch name {
	case "portfolio":
		cat, q := paropt.PortfolioWorkload(disks)
		return cat, q, nil
	case "tpch":
		cat, qs := paropt.TPCHWorkload(disks, 1)
		return cat, qs[n%len(qs)], nil // -n selects Q3/Q5/Q10
	case "chain", "star", "cycle", "clique":
		shape := map[string]paropt.Shape{
			"chain": paropt.Chain, "star": paropt.Star,
			"cycle": paropt.Cycle, "clique": paropt.Clique,
		}[name]
		cat, q := paropt.Generate(paropt.GenConfig{
			Relations: n, Shape: shape,
			MinCard: 10_000, MaxCard: 1_000_000,
			Disks: disks, IndexProb: 0.5, SortedProb: 0.25, Seed: seed,
		})
		return cat, q, nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paropt:", err)
	os.Exit(1)
}
