package parser

import (
	"fmt"
	"strings"
	"testing"
)

// chainSQL is the serving benchmarks' 6-relation chain (serviceChainSQL).
func chainSQL(literal int) string {
	var preds []string
	for i := 1; i < 6; i++ {
		preds = append(preds, fmt.Sprintf("R%d.b = R%d.a", i, i+1))
	}
	preds = append(preds, fmt.Sprintf("R1.a = %d", literal))
	return "SELECT * FROM R1, R2, R3, R4, R5, R6 WHERE " + strings.Join(preds, " AND ")
}

// TestScanAllocatesNothing: the scanner hands out one token at a time, each
// a substring of the source, so scanning a query — and masking it into a
// caller's buffer — allocates nothing, however long the input.
func TestScanAllocatesNothing(t *testing.T) {
	src := chainSQL(7)
	n, err := tokens(src)
	if err != nil || len(n) < 20 {
		t.Fatalf("%d tokens, err %v", len(n), err)
	}
	scan := func() {
		s := newScanner(src)
		for s.next().kind != tokEOF {
		}
	}
	if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
		t.Fatalf("scanning allocates %.0f times, want 0", allocs)
	}
	buf := make([]byte, 0, len(src))
	if allocs := testing.AllocsPerRun(100, func() { Mask(buf[:0], src) }); allocs != 0 {
		t.Fatalf("Mask allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkParseQuery reports bytes per parse of that query (EXPERIMENTS §HB1).
func BenchmarkParseQuery(b *testing.B) {
	var ddl strings.Builder
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(&ddl, "relation R%d card=1000 pages=10\ncolumn R%d.a ndv=100\ncolumn R%d.b ndv=100\n", i, i, i)
	}
	cat, err := ParseSchema(ddl.String())
	if err != nil {
		b.Fatal(err)
	}
	src := chainSQL(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(src, cat); err != nil {
			b.Fatal(err)
		}
	}
}
