package workload

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paropt/internal/obs"
)

func TestQueryLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := obs.NewSink[Record](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Write(Record{
			Kind:          "optimize",
			Fingerprint:   fmt.Sprintf("fp-%d", i%3),
			Query:         fmt.Sprintf("SELECT * FROM R WHERE R.a = %d", i),
			PlanSig:       "HJ(scan(R), scan(S))",
			Cache:         "hit",
			ElapsedMicros: int64(i * 10),
		})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	records, dropped, rotations := l.Stats()
	if records != 10 || dropped != 0 || rotations != 0 {
		t.Errorf("stats = (%d, %d, %d), want (10, 0, 0)", records, dropped, rotations)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
	if recs[3].Query != "SELECT * FROM R WHERE R.a = 3" || recs[3].PlanSig == "" {
		t.Errorf("record 3 corrupted: %+v", recs[3])
	}

	// Reopening appends.
	l2, err := obs.NewSink[Record](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2.Write(Record{Kind: "optimize", Query: "q11"})
	l2.Close()
	recs, err = ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Errorf("append after reopen: %d records, want 11", len(recs))
	}
}

func TestQueryLogRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := obs.NewSink[Record](path, 300) // a couple of records per generation
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Write(Record{Kind: "optimize", Query: fmt.Sprintf("SELECT * FROM R WHERE R.a = %d", i)})
	}
	l.Close()
	_, _, rotations := l.Stats()
	if rotations == 0 {
		t.Fatal("expected at least one rotation")
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("rotated generation missing: %v", err)
	}
	// Current + previous generation together hold the tail of the stream.
	cur, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := ReadLog(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) == 0 || len(prev) == 0 {
		t.Errorf("generations: current %d, previous %d records", len(cur), len(prev))
	}
	last := cur[len(cur)-1]
	if last.Query != "SELECT * FROM R WHERE R.a = 19" {
		t.Errorf("stream tail lost: %+v", last)
	}
}

func TestQueryLogDropsWhenBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := obs.NewSink[Record](path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flood faster than the writer can drain the queue: enqueueing is a
	// channel send, draining a marshal plus a write syscall per record.
	var attempts, dropped int64
	for dropped == 0 && attempts < 1_000_000 {
		for i := 0; i < 10_000; i++ {
			l.Write(Record{Kind: "optimize", Query: "q"})
		}
		attempts += 10_000
		_, dropped, _ = l.Stats()
	}
	l.Close()
	records, dropped, _ := l.Stats()
	if dropped == 0 {
		t.Error("flooding the queue should drop records")
	}
	if records+dropped != attempts {
		t.Errorf("accounting leak: %d written + %d dropped != %d", records, dropped, attempts)
	}
	// Write after Close is a counted drop, not a panic.
	l.Write(Record{Kind: "optimize", Query: "late"})
	if _, after, _ := l.Stats(); after != dropped+1 {
		t.Errorf("write after Close: dropped %d -> %d, want +1", dropped, after)
	}
}

// TestReadLogAcrossFormats: ReadLog (and so `paropt replay` / `paropt
// workload`) reads a log written before records carried traceId, queryId,
// phase and cancelled, a current one, and one from a future build with a
// field this one does not know — all in one file, as an upgraded daemon
// appending to its old log produces.
func TestReadLogAcrossFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	content := `{"t":"2026-09-30T12:00:00Z","kind":"optimize","fp":"abc","catalog":"v1","query":"SELECT * FROM R","k":2,"cache":"miss","plan":"HJ(R,S)","rt":10.5,"work":20,"elapsedMicros":1234}
{"t":"2026-10-02T12:00:00Z","kind":"explain","traceId":"k3x-1","queryId":7,"phase":"execute","cancelled":"client","fp":"abc","catalog":"v1","query":"SELECT * FROM R","elapsedMicros":99,"error":"service: query cancelled (client)"}
{"t":"2026-10-02T12:00:01Z","kind":"optimize","query":"q","elapsedMicros":1,"someFutureField":{"x":1}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	if old := recs[0]; old.PlanSig != "HJ(R,S)" || old.K != 2 || old.TraceID != "" || old.Phase != "" {
		t.Errorf("parent-format record misread: %+v", old)
	}
	if cur := recs[1]; cur.TraceID != "k3x-1" || cur.QueryID != 7 || cur.Phase != "execute" || cur.Cancelled != "client" {
		t.Errorf("current-format record misread: %+v", cur)
	}
	// Both formats aggregate into the one profile.
	snaps := Aggregate(recs)
	if len(snaps) != 1 || snaps[0].Count != 2 || snaps[0].Errors != 1 {
		t.Errorf("aggregate over mixed formats: %+v", snaps)
	}
}

func TestReadLogToleratesTrailingPartialLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	content := `{"kind":"optimize","query":"q1","elapsedMicros":1}
{"kind":"optimize","query":"q2","elapsedMicros":2}
{"kind":"optimize","query":"q3","elapsed`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("expected 2 complete records, got %d", len(recs))
	}

	// A malformed line in the middle is an error.
	bad := "{\"kind\":\"optimize\",\"query\":\"q1\"}\nnot json\n{\"kind\":\"optimize\",\"query\":\"q2\"}\n"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(path); err == nil {
		t.Error("mid-file corruption should error")
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Write(Record{})
	if err := l.Close(); err != nil {
		t.Error(err)
	}
	if r, d, ro := l.Stats(); r != 0 || d != 0 || ro != 0 {
		t.Error("nil log should report zeros")
	}
	if l.Path() != "" {
		t.Error("nil log path should be empty")
	}
	if _, err := ReadLog(filepath.Join(t.TempDir(), "missing.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file should surface ErrNotExist, got %v", err)
	}
}
