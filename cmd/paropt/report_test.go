package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestReportFastGolden pins `paropt report -fast` byte for byte (every
// experiment is seeded, so the report is deterministic; regenerate the golden
// with `go run ./cmd/paropt report -fast > cmd/paropt/testdata/report_fast.golden`
// when a number moves on purpose), and checks that naming sections yields
// exactly those sections' slices of it.
func TestReportFastGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/report_fast.golden")
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := runReport(&full, true, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), golden) {
		t.Fatalf("report -fast drifted from testdata/report_fast.golden:\n%s", firstDiff(string(golden), full.String()))
	}

	// The report is its header followed by one "\n## <ID> …" block per
	// section, in reportSections order.
	blocks := strings.Split(string(golden), "\n## ")[1:]
	if len(blocks) != len(reportSections) {
		t.Fatalf("golden has %d sections, reportSections %d", len(blocks), len(reportSections))
	}
	slice := map[string]string{}
	for i, b := range blocks {
		id := reportSections[i].id
		if !strings.HasPrefix(b, id) {
			t.Fatalf("section %d of the golden starts %q, want ID %s", i, strings.SplitN(b, "\n", 2)[0], id)
		}
		slice[id] = "\n## " + b
	}
	for _, ids := range [][]string{{"E2"}, {"T3", "S1"}, {"S1", "E3", "S1"}, {"D1", "A8"}} {
		var got bytes.Buffer
		if err := runReport(&got, true, ids); err != nil {
			t.Fatal(err)
		}
		want := ""
		for _, s := range reportSections {
			for _, id := range ids {
				if id == s.id {
					want += slice[id]
					break
				}
			}
		}
		if got.String() != want {
			t.Errorf("report %v:\n%s", ids, firstDiff(want, got.String()))
		}
	}
	if err := runReport(&bytes.Buffer{}, true, []string{"T1", "Z9"}); err == nil {
		t.Error("an unknown section ID should be an error")
	}
}

// firstDiff renders the first line two texts disagree on.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
