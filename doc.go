// Package paropt is a parallel query optimizer for Select-Project-Join
// queries, reproducing "Query Optimization for Parallel Execution"
// (Ganguly, Hasan, Krishnamurthy; SIGMOD 1992).
//
// The paper's problem is the dual of the traditional DBMS objective:
// minimize response time subject to constraints on extra work. The library
// provides all three of the paper's components plus the substrates they
// need:
//
//   - Execution space (§4): annotated join trees macro-expanded into
//     operator trees with pipelined/materialized composition, cloning
//     (intra-operator parallelism), and data-redistribution annotations.
//   - Cost model (§5): two-part resource descriptors (first tuple, last
//     tuple) over per-resource work vectors, composed with the calculus
//     operators ||, ;, ⊖, the pipeline composition with the δ(k)
//     synchronization penalty, and sync() for materialized fronts.
//   - Search (§6): System R dynamic programming (Figure 1), its
//     partial-order generalization over cover sets (Figure 2), bushy-tree
//     variants, pruning metrics (work, resource vector, interesting
//     orders), and the §2 work bounds (throughput-degradation factor and
//     cost–benefit ratio) folded into the search. Optimize runs any row of
//     Table 1 — the DPs, brute force, two-phase, randomized search — under
//     any bound.
//
// Supporting substrates: a catalog with System R statistics, a parallel
// machine model of preemptable resources, a discrete-event machine
// simulator that executes operator trees under exactly the cost model's
// scheduling assumptions, and a goroutine-based parallel execution engine
// (pipelines over channels, hash-partitioned cloned joins) that runs
// optimized plans on real data.
//
// Quick start:
//
//	cat, q := paropt.PortfolioWorkload(4)
//	opt, err := paropt.NewOptimizer(cat, q, paropt.Config{})
//	if err != nil { ... }
//	p, err := paropt.Optimize(opt, paropt.Run{Bound: paropt.ThroughputDegradation{K: 2}})
//	fmt.Println(opt.Explain(p))
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of every table, figure and example in the paper.
package paropt
