package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// topMain implements `paropt top`: poll a daemon's /debug/queries registry
// and render the in-flight queries — phase, elapsed time, per-operator
// percent complete mapped against the plan's (tf, tl) descriptors, the
// model-predicted ETA, and the drift flag. With -cancel it instead sends
// DELETE /debug/queries/{id} and exits.
func topMain(args []string) {
	fs := flag.NewFlagSet("paropt top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:7077", "daemon base URL")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	count := fs.Int("n", 0, "snapshots to print before exiting (0 = until interrupted)")
	cancel := fs.Int64("cancel", 0, "cancel this query ID (DELETE /debug/queries/{id}) and exit")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	base := strings.TrimSuffix(*addr, "/")

	if *cancel > 0 {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/debug/queries/%d", base, *cancel), nil)
		if err != nil {
			fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("top: cancel %d: %s: %s", *cancel, resp.Status, strings.TrimSpace(string(body))))
		}
		fmt.Printf("cancelled query %d\n", *cancel)
		return
	}

	for i := 0; ; i++ {
		fmt.Printf("%s  %s\n", time.Now().Format("15:04:05"), base)
		if err := copyQueries(os.Stdout, base); err != nil {
			fatal(err)
		}
		if *once || (*count > 0 && i+1 >= *count) {
			return
		}
		time.Sleep(*interval)
		fmt.Println()
	}
}

// copyQueries writes one /debug/queries snapshot as the daemon's own text
// table: a summary row per query plus per-operator progress rows.
func copyQueries(w io.Writer, base string) error {
	resp, err := http.Get(base + "/debug/queries?format=text")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("top: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
