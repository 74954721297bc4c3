package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"paropt/internal/obs"
)

// Record is one finished request — the single value the service hands to the
// profiler, the persistent query log and its request log line. It carries
// enough to re-execute the request (query text, bound knobs, catalog
// version), to compare a replay against what was served (plan signature,
// costs, latency), and to find everything else the request left behind
// (TraceID links /debug/trace, whose span tree holds the request's search and
// any plan change it caused; QueryID is the /debug/queries ID it ran under).
type Record struct {
	Time    time.Time `json:"t"`
	Kind    string    `json:"kind"` // "optimize" or "explain"
	TraceID string    `json:"traceId,omitempty"`
	QueryID int64     `json:"queryId,omitempty"`
	// Phase is the last phase the request entered (parse, search, select,
	// execute); Cancelled the cancellation reason (client, deadline,
	// shutdown), empty for requests that ran to an answer or an error.
	Phase       string  `json:"phase,omitempty"`
	Cancelled   string  `json:"cancelled,omitempty"`
	Fingerprint string  `json:"fp,omitempty"`
	Catalog     string  `json:"catalog,omitempty"`
	Query       string  `json:"query"`
	K           float64 `json:"k,omitempty"`
	CostBenefit float64 `json:"costBenefit,omitempty"`
	Cache       string  `json:"cache,omitempty"`
	Deduped     bool    `json:"deduped,omitempty"`
	PlanSig     string  `json:"plan,omitempty"`
	RT          float64 `json:"rt,omitempty"`
	Work        float64 `json:"work,omitempty"`
	// RelErr and QErr carry the accuracy report of analyze requests (mean
	// |rel err| and max row q-error), so offline reports can build the same
	// drift table the live profiler keeps.
	RelErr        float64 `json:"relErr,omitempty"`
	QErr          float64 `json:"qErr,omitempty"`
	ElapsedMicros int64   `json:"elapsedMicros"`
	Error         string  `json:"error,omitempty"`
}

// Log is the persistent append-only query log: the JSONL sink (bounded
// queue, never blocks, drop counter, size rotation) carrying Records.
type Log = obs.Sink[Record]

// ReadLog parses a JSONL query-log file. A trailing partial line (a record
// mid-write) is ignored; a malformed line elsewhere is an error.
func ReadLog(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: read log: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		if pendingErr != nil {
			return nil, pendingErr
		}
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			// Defer the error one line: only a *non-final* malformed line is
			// fatal, the final one is a record still being written.
			pendingErr = fmt.Errorf("workload: read log: line %d: %w", line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read log: %w", err)
	}
	return out, nil
}
