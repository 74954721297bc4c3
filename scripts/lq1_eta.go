//go:build ignore

// LQ1 harness: live (tf, tl)-predicted progress vs ground truth.
//
// Runs an in-process service, executes an explain-analyze over the
// 6-relation acceptance chain, samples the in-flight registry while the
// engine runs, and reports how accurate the model-predicted ETA was at each
// sample point against the actually-remaining wall time. The first analyze
// warms the plan cache and the synthetic database so the measured run is
// execute-dominated. Output is markdown, ready to paste into EXPERIMENTS.md
// §LQ1:
//
//	go run scripts/lq1_eta.go [-parallel 2] [-interval 25ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"paropt/internal/parser"
	"paropt/internal/service"
)

// Same 6-relation chain schema the service tests use as the acceptance
// workload.
const ddl = `
relation R1 card=50000 pages=500 disk=0
column R1.a ndv=50000
column R1.b ndv=2000
relation R2 card=80000 pages=800 disk=1
column R2.a ndv=2000
column R2.b ndv=4000
relation R3 card=60000 pages=600 disk=2
column R3.a ndv=4000
column R3.b ndv=3000
relation R4 card=90000 pages=900 disk=3
column R4.a ndv=3000
column R4.b ndv=5000
relation R5 card=70000 pages=700 disk=0
column R5.a ndv=5000
column R5.b ndv=2500
relation R6 card=40000 pages=400 disk=1
column R6.a ndv=2500
column R6.b ndv=1000
`

func chainSQL(n, literal int) string {
	rels := make([]string, n)
	for i := range rels {
		rels[i] = fmt.Sprintf("R%d", i+1)
	}
	var preds []string
	for i := 1; i < n; i++ {
		preds = append(preds, fmt.Sprintf("R%d.b = R%d.a", i, i+1))
	}
	preds = append(preds, fmt.Sprintf("R1.a = %d", literal))
	return "SELECT * FROM " + strings.Join(rels, ", ") + " WHERE " + strings.Join(preds, " AND ")
}

func main() {
	parallel := flag.Int("parallel", 2, "cap on each join's clone degree for the analyze")
	interval := flag.Duration("interval", 25*time.Millisecond, "sample interval")
	flag.Parse()

	cat, err := parser.ParseSchema(ddl)
	if err != nil {
		fatal(err)
	}
	s, err := service.New(service.Config{Catalog: cat})
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	sql := chainSQL(6, 7)
	req := service.OptimizeRequest{Query: sql, Analyze: true, AnalyzeParallel: *parallel}

	// Warm-up: populates the plan cache and generates the synthetic
	// database, so the measured run below is execution, not setup.
	warmStart := time.Now()
	if _, err := s.Explain(context.Background(), req); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "warm-up analyze: %s\n", time.Since(warmStart).Round(time.Millisecond))

	type sample struct {
		at time.Time
		qs service.QuerySnapshot
	}
	var samples []sample
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := s.Explain(context.Background(), req)
		done <- err
	}()
	var finish time.Time
loop:
	for {
		select {
		case err := <-done:
			finish = time.Now()
			if err != nil {
				fatal(err)
			}
			break loop
		case <-time.After(*interval):
			for _, qs := range s.InflightQueries() {
				if qs.Phase == "execute" && qs.Progress != nil {
					samples = append(samples, sample{time.Now(), qs})
				}
			}
		}
	}
	wall := finish.Sub(start)

	fmt.Printf("Measured run: %s wall, parallel=%d, %d execute-phase samples at %s.\n\n",
		wall.Round(time.Millisecond), *parallel, len(samples), *interval)
	fmt.Println("| t (ms) | progress | calibrated predicted wall (ms) | ETA (ms) | true remaining (ms) | ETA rel err | drift |")
	fmt.Println("|-------:|---------:|-------------------------------:|---------:|--------------------:|------------:|-------|")
	var relErrs []float64
	nextDecile := 0.0
	for _, sm := range samples {
		p := sm.qs.Progress
		if p.ETAMs < 0 || !p.Calibrated {
			continue
		}
		trueRem := float64(finish.Sub(sm.at)) / 1e6
		// Floor the denominator: near the finish line "remaining" goes to
		// zero and relative error stops being meaningful.
		denom := math.Max(trueRem, 100)
		re := math.Abs(p.ETAMs-trueRem) / denom
		relErrs = append(relErrs, re)
		if p.Percent >= nextDecile {
			drift := ""
			if p.Drift {
				drift = "DRIFT"
			}
			fmt.Printf("| %.0f | %.0f%% | %.0f | %.0f | %.0f | %.2f | %s |\n",
				float64(sm.at.Sub(start))/1e6, p.Percent*100, p.PredictedWallMs, p.ETAMs, trueRem, re, drift)
			nextDecile = math.Floor(p.Percent*10)/10 + 0.1
		}
	}
	if len(relErrs) == 0 {
		fmt.Println()
		fmt.Println("No calibrated samples landed — run was too fast for the interval.")
		return
	}
	sort.Float64s(relErrs)
	var sum float64
	for _, re := range relErrs {
		sum += re
	}
	fmt.Printf("\n%d calibrated samples: ETA rel-err median %.2f, mean %.2f, p90 %.2f.\n",
		len(relErrs), relErrs[len(relErrs)/2], sum/float64(len(relErrs)), relErrs[len(relErrs)*9/10])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lq1:", err)
	os.Exit(1)
}
