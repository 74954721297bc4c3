package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

type line struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func readLines(t *testing.T, path string) []line {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %q does not parse back: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	return out
}

func TestSinkDropsRotatesAndAppends(t *testing.T) {
	dir := t.TempDir()

	// A depth-1 queue flooded with writes must drop — and count every drop.
	path := filepath.Join(dir, "drops.jsonl")
	s, err := newSink[line](path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		s.Write(line{N: i})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	records, dropped, _ := s.Stats()
	if dropped == 0 || records+dropped != 10_000 {
		t.Errorf("depth-1 flood: %d written + %d dropped, want drops and a total of 10000", records, dropped)
	}
	if got := int64(len(readLines(t, path))); got != records {
		t.Errorf("file holds %d lines, records counter says %d", got, records)
	}

	// Rotation keeps exactly one previous generation, and the stream's tail
	// is in the current file.
	path = filepath.Join(dir, "rot.jsonl")
	if s, err = NewSink[line](path, 200); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Write(line{N: i, S: "padding-padding-padding"})
	}
	s.Close()
	if _, _, rotations := s.Stats(); rotations < 2 {
		t.Fatalf("rotations = %d, want several", rotations)
	}
	cur, prev := readLines(t, path), readLines(t, path+".1")
	if len(cur) == 0 || len(prev) == 0 || cur[len(cur)-1].N != 99 || prev[len(prev)-1].N != cur[0].N-1 {
		t.Errorf("generations do not hold the stream's tail: prev %+v cur %+v", prev, cur)
	}
	if _, err := os.Stat(path + ".2"); !os.IsNotExist(err) {
		t.Errorf("a second old generation was kept: %v", err)
	}

	// Reopening appends; Close is idempotent; a nil sink is a no-op.
	path = filepath.Join(dir, "append.jsonl")
	for life := 0; life < 2; life++ {
		if s, err = NewSink[line](path, 0); err != nil {
			t.Fatal(err)
		}
		s.Write(line{N: life})
		s.Close()
		s.Close()
	}
	if got := readLines(t, path); len(got) != 2 || got[0].N != 0 || got[1].N != 1 {
		t.Errorf("second lifetime must append, not truncate: %+v", got)
	}
	var none *Sink[line]
	none.Write(line{})
	if r, d, ro := none.Stats(); none.Close() != nil || none.Path() != "" || r+d+ro != 0 {
		t.Error("nil sink should be a no-op")
	}
}

// TestSinkWriteRacingClose: requests still finishing while the daemon tears
// down write into a sink that is being closed. No write may panic, and every
// one must land in exactly one counter. Meaningful under -race.
func TestSinkWriteRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("race-%d.jsonl", round))
		s, err := NewSink[line](path, 0)
		if err != nil {
			t.Fatal(err)
		}
		var attempts atomic.Int64
		var started, wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			started.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				started.Done()
				for i := 0; i < 2000; i++ {
					s.Write(line{N: i})
					attempts.Add(1)
				}
			}()
		}
		started.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		records, dropped, _ := s.Stats()
		if records+dropped != attempts.Load() {
			t.Fatalf("round %d: %d written + %d dropped != %d attempts", round, records, dropped, attempts.Load())
		}
		if got := int64(len(readLines(t, path))); got != records {
			t.Fatalf("round %d: file holds %d lines, records counter says %d", round, got, records)
		}
	}
}
