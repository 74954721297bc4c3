package main

import (
	"flag"
	"fmt"

	"paropt"
	"paropt/internal/calibrate"
)

// calibrateMain implements `paropt calibrate`: it measures the execution
// engine's micro-operations on this machine and prints a fitted cost-model
// parameter set, plus the effect on an optimized plan.
func calibrateMain(args []string) {
	fs := flag.NewFlagSet("paropt calibrate", flag.ExitOnError)
	scale := fs.Int64("scale", 100_000, "tuples per micro-benchmark")
	seed := fs.Int64("seed", 1, "data seed")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	rep, err := calibrate.Run(*scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.String())

	// Show what calibration changes on a real optimization.
	cat, q := paropt.PortfolioWorkload(4)
	def := paropt.DefaultCostParams()
	for _, tc := range []struct {
		name   string
		params paropt.CostParams
	}{
		{"default params", def},
		{"calibrated params", rep.Params},
	} {
		params := tc.params
		opt, err := paropt.NewOptimizer(cat, q, paropt.Config{Params: &params})
		if err != nil {
			fatal(err)
		}
		p, err := paropt.Optimize(opt, paropt.Run{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s → plan %s\n  rt=%.1f work=%.1f\n", tc.name, p.Tree, p.RT(), p.Work())
	}
}
