// Command bench is the repository benchmark: four closed-loop workloads
// against the paroptd HTTP boundary, measured from outside (see README.md).
//
//	bench -workload W [-seed N] [-seconds S] [-trace 0|1]   one run, one result line
//	bench [-seed N] [-seconds S]                            the full ledger set
//	bench compare A.json B.json                             diff two ledgers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+") and print its result line; empty runs the full set")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "undisturbed time one run's measured section collects (it may run twice as long for it)")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced run (end-to-end metrics)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	nproc := runtime.NumCPU()

	if *workload == "" {
		if err := runSet(*seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	in, err := generate(*workload, *seed, fullScale, nproc)
	if err != nil {
		fatal(err)
	}
	// Stated rather than inherited: before Go 1.25 the runtime ignores a
	// container's CPU quota.
	runtime.GOMAXPROCS(in.procs)
	var res *result
	if *trace != 0 {
		res, err = runTraced(in, *seconds, os.Stderr)
	} else {
		res, err = runEndToEnd(in, *seconds, os.Stderr)
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(*workload, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics prints every metric by name as `workload metric value unit`.
func printMetrics(workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %s %.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
