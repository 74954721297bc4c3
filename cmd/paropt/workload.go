package main

import (
	"flag"
	"fmt"
	"os"

	"paropt/internal/obs/workload"
)

// workloadMain implements `paropt workload <query-log.jsonl>`: an offline,
// human-readable workload report built by folding the log through the same
// aggregation the live profiler runs — top templates by traffic/latency/
// drift, streaming latency quantiles, and the drift table (templates whose
// recorded analyze accuracy marks their plans stale, by the daemon's drift
// constants).
func workloadMain(args []string) {
	fs := flag.NewFlagSet("paropt workload", flag.ExitOnError)
	top := fs.Int("top", 20, "templates to show")
	by := fs.String("by", "traffic", "order: traffic, latency or drift")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: paropt workload [flags] <query-log.jsonl>")
		fs.PrintDefaults()
		os.Exit(2)
	}
	switch *by {
	case "traffic", "latency", "drift":
	default:
		fatal(fmt.Errorf("workload: -by must be traffic, latency or drift (got %q)", *by))
	}
	recs, err := workload.ReadLog(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	snaps := workload.Aggregate(recs)
	var errors, analyzed int
	for _, r := range recs {
		if r.Error != "" {
			errors++
		}
		if r.QErr > 0 || r.RelErr > 0 {
			analyzed++
		}
	}
	var drifted []workload.ProfileSnapshot
	for _, s := range snaps {
		if s.Drifted {
			drifted = append(drifted, s)
		}
	}
	fmt.Printf("query log: %s\n", fs.Arg(0))
	fmt.Printf("records: %d (%d failed, %d with accuracy samples), templates: %d, drifted: %d\n\n",
		len(recs), errors, analyzed, len(snaps), len(drifted))

	workload.SortBy(snaps, *by)
	if len(snaps) > *top {
		snaps = snaps[:*top]
	}
	fmt.Printf("top %d templates by %s:\n", len(snaps), *by)
	fmt.Print(workload.FormatTable(snaps))

	if len(drifted) > 0 {
		workload.SortBy(drifted, "drift")
		fmt.Printf("\ndrifted templates (EWMA q-error ≥ %g over ≥ %d samples) — re-optimization candidates:\n",
			workload.DriftThreshold, workload.DriftMinSamples)
		fmt.Print(workload.FormatTable(drifted))
	}
}
