package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"paropt"
	"paropt/internal/machine"
	"paropt/internal/obs/workload"
	"paropt/internal/service"
	workloads "paropt/internal/workload"
)

// replayMain implements `paropt replay <query-log.jsonl>`: it re-executes a
// recorded workload — against a running daemon (-addr) or an in-process
// service built from the same flags paroptd takes — and reports plan-choice
// and latency deltas. Plan choices are deterministic for a fixed catalog and
// configuration, so with -strict any plan change or replay error exits 1:
// the query log turned regression harness.
func replayMain(args []string) {
	fs := flag.NewFlagSet("paropt replay", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (e.g. http://localhost:7077); empty replays in-process")
	strict := fs.Bool("strict", false, "exit 1 on any plan change or replay error")
	verbose := fs.Bool("verbose", false, "report every replayed record, not just changes and errors")
	// In-process service knobs, mirroring paroptd's defaults so a log
	// recorded by a default daemon replays identically.
	wl := fs.String("workload", "portfolio", "in-process default catalog (portfolio, tpch or none)")
	schemaFile := fs.String("schema", "", "in-process schema DDL file (overrides -workload)")
	cpus := fs.Int("cpus", 4, "in-process machine CPUs")
	disks := fs.Int("disks", 4, "in-process machine disks")
	beam := fs.Int("beam", 0, "in-process cover-set cap (0 = exact)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: paropt replay [flags] <query-log.jsonl>")
		fs.PrintDefaults()
		os.Exit(2)
	}
	recs, err := workload.ReadLog(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	var exec workload.Executor
	if *addr != "" {
		exec = httpExecutor(*addr)
	} else {
		svc, inProc, err := inProcessExecutor(*schemaFile, *wl, *cpus, *disks, *beam)
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		exec = inProc
	}
	rep := workload.Replay(recs, exec, *verbose)
	fmt.Print(rep.Table())
	if *strict && (rep.PlanChanges > 0 || rep.Errors > 0) {
		os.Exit(1)
	}
}

// httpExecutor replays one record as POST /optimize against a daemon.
func httpExecutor(base string) workload.Executor {
	client := &http.Client{Timeout: 60 * time.Second}
	return func(r workload.Record) workload.Outcome {
		body, err := json.Marshal(service.OptimizeRequest{
			Query:       r.Query,
			Catalog:     r.Catalog,
			K:           r.K,
			CostBenefit: r.CostBenefit,
		})
		if err != nil {
			return workload.Outcome{Err: err}
		}
		start := time.Now()
		resp, err := client.Post(base+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			return workload.Outcome{Err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
			return workload.Outcome{Err: fmt.Errorf("daemon: %d %s", resp.StatusCode, e.Error)}
		}
		var out service.OptimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return workload.Outcome{Err: err}
		}
		return workload.Outcome{PlanSig: out.PlanSignature, ElapsedMicros: time.Since(start).Microseconds()}
	}
}

// inProcessExecutor replays against a fresh service in this process, which
// the caller closes. Records that name a catalog version other than the
// configured default fail — an in-process replay can only know the catalogs
// its flags build.
func inProcessExecutor(schemaFile, wl string, cpus, disks, beam int) (*paropt.Service, workload.Executor, error) {
	cat, err := workloads.DefaultCatalog(schemaFile, wl, disks)
	if err != nil {
		return nil, nil, err
	}
	svc, err := paropt.NewService(paropt.ServiceConfig{
		Catalog:  cat,
		Machine:  machine.Config{CPUs: cpus, Disks: disks, Networks: 1},
		CoverCap: beam,
	})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	return svc, func(r workload.Record) workload.Outcome {
		start := time.Now()
		resp, err := svc.Optimize(ctx, service.OptimizeRequest{
			Query:       r.Query,
			Catalog:     r.Catalog,
			K:           r.K,
			CostBenefit: r.CostBenefit,
		})
		if err != nil {
			return workload.Outcome{Err: err}
		}
		return workload.Outcome{PlanSig: resp.PlanSignature, ElapsedMicros: time.Since(start).Microseconds()}
	}, nil
}
