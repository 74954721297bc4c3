package workload

import (
	"errors"
	"strings"
	"testing"
)

func TestReplayComparesPlansAndLatency(t *testing.T) {
	recs := []Record{
		{Query: "q1", Fingerprint: "a", PlanSig: "HJ(A,B)", ElapsedMicros: 100},
		{Query: "q2", Fingerprint: "b", PlanSig: "SM(C,D)", ElapsedMicros: 200},
		{Query: "q3", Fingerprint: "c", PlanSig: "NL(E,F)", ElapsedMicros: 300},
		{Query: "bad", Fingerprint: "", Error: "parse error", ElapsedMicros: 10},
	}
	exec := func(r Record) Outcome {
		switch r.Query {
		case "q2": // plan regression
			return Outcome{PlanSig: "HJ(D,C)", ElapsedMicros: 150}
		case "q3": // replay-time failure
			return Outcome{Err: errors.New("boom")}
		default:
			return Outcome{PlanSig: r.PlanSig, ElapsedMicros: 50}
		}
	}
	rep := Replay(recs, exec, false)
	if rep.Total != 4 || rep.Skipped != 1 || rep.Errors != 1 {
		t.Errorf("totals wrong: %+v", rep)
	}
	if rep.PlanMatches != 1 || rep.PlanChanges != 1 {
		t.Errorf("plan accounting wrong: %+v", rep)
	}
	if len(rep.Deltas) != 2 { // the change and the error, not the match
		t.Errorf("non-verbose deltas should hold changes+errors only: %+v", rep.Deltas)
	}
	table := rep.Table()
	for _, want := range []string{"plan changes: 1", "PLAN CHANGED", "HJ(D,C)", "ERROR boom"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	// Verbose keeps every replayed comparison.
	rep = Replay(recs, exec, true)
	if len(rep.Deltas) != 3 {
		t.Errorf("verbose should keep all 3 replayed records, got %d", len(rep.Deltas))
	}
}

func TestReplayDeterministicWorkloadHasNoChanges(t *testing.T) {
	var recs []Record
	for i := 0; i < 20; i++ {
		recs = append(recs, Record{Query: "q", Fingerprint: "f", PlanSig: "HJ(A,B)", ElapsedMicros: int64(i)})
	}
	rep := Replay(recs, func(r Record) Outcome {
		return Outcome{PlanSig: r.PlanSig, ElapsedMicros: r.ElapsedMicros}
	}, false)
	if rep.PlanChanges != 0 || rep.PlanMatches != 20 || rep.Errors != 0 {
		t.Errorf("identity replay should be clean: %+v", rep)
	}
	if rep.RecordedMeanMicros != rep.ReplayedMeanMicros {
		t.Errorf("identity replay should preserve latency stats: %+v", rep)
	}
}

func TestAggregateMirrorsProfiler(t *testing.T) {
	recs := []Record{
		{Fingerprint: "a", Query: "qa", Cache: "miss", PlanSig: "P1", ElapsedMicros: 100},
		{Fingerprint: "a", Query: "qa", Cache: "hit", PlanSig: "P1", ElapsedMicros: 10, RelErr: 0.3, QErr: 5},
		{Fingerprint: "a", Query: "qa", Cache: "hit", PlanSig: "P1", ElapsedMicros: 12, RelErr: 0.3, QErr: 5},
		{Fingerprint: "b", Query: "qb", Cache: "miss", PlanSig: "P2", ElapsedMicros: 400},
		{Query: "broken", Error: "no such relation"},
	}
	snaps := Aggregate(recs)
	if len(snaps) != 2 {
		t.Fatalf("expected 2 profiles, got %d", len(snaps))
	}
	SortBy(snaps, "traffic")
	a := snaps[0]
	if a.Fingerprint != "a" || a.Count != 3 || a.Hits != 2 || a.Misses != 1 {
		t.Errorf("profile a wrong: %+v", a)
	}
	if !a.Drifted {
		t.Errorf("two q-err=5 samples should mark drift: %+v", a)
	}
}
