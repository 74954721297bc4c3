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

// TestLexAllocatesOnce: the token slice is sized from the source length, so
// lexing a query is one allocation, not a doubling series of them.
func TestLexAllocatesOnce(t *testing.T) {
	src := chainSQL(7)
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if cap(toks) != len(src)/2+2 {
		t.Fatalf("%d tokens outgrew the %d the source length predicts", len(toks), len(src)/2+2)
	}
	if allocs := testing.AllocsPerRun(100, func() { lex(src) }); allocs != 1 { //nolint:errcheck
		t.Fatalf("lex allocates %.0f times, want 1 (the token slice)", allocs)
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
