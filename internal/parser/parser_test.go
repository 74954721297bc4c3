package parser

import (
	"strings"
	"testing"

	"paropt/internal/query"
)

const demoSchema = `
# demo warehouse
relation orders card=500000 pages=5000 disk=0
column orders.order_id ndv=500000 width=8
column orders.cust_id ndv=40000 width=8
relation customers card=40000 pages=400 disk=1 sorted=cust_id
column customers.cust_id ndv=40000 width=8
column customers.region ndv=25 width=8
relation tiny card=10 pages=1
index customers_pk on customers(cust_id) clustered disk=1
index orders_cust on orders(cust_id) covering disk=2 pages=300
`

func TestParseSchema(t *testing.T) {
	cat, err := ParseSchema(demoSchema)
	if err != nil {
		t.Fatal(err)
	}
	orders := cat.MustRelation("orders")
	if orders.Card != 500000 || orders.Pages != 5000 || orders.Disk != 0 {
		t.Fatalf("orders = %+v", orders)
	}
	if len(orders.Columns) != 2 || orders.Columns[1].Name != "cust_id" {
		t.Fatalf("orders columns = %v", orders.Columns)
	}
	cust := cat.MustRelation("customers")
	if cust.SortedBy != "cust_id" {
		t.Error("sorted option ignored")
	}
	if got := cust.MustColumn("region").NDV; got != 25 {
		t.Errorf("region NDV = %d", got)
	}
	// Relation without columns gets a default id column.
	tiny := cat.MustRelation("tiny")
	if len(tiny.Columns) != 1 || tiny.Columns[0].Name != "id" {
		t.Errorf("tiny columns = %v", tiny.Columns)
	}
	pk, ok := cat.Index("customers_pk")
	if !ok || !pk.Clustered || pk.Disk != 1 {
		t.Fatalf("customers_pk = %+v", pk)
	}
	oc, ok := cat.Index("orders_cust")
	if !ok || !oc.Covering || oc.Pages != 300 || oc.Disk != 2 {
		t.Fatalf("orders_cust = %+v", oc)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown statement", "table foo card=1"},
		{"column before relation", "column r.c ndv=5"},
		{"index missing on", "relation r card=1\nindex i r(id)"},
		{"index bad paren", "relation r card=1\nindex i on r id)"},
		{"bad option value", "relation r card=(5)"},
		{"bad char", "relation r card=1 !"},
		{"index unknown relation", "index i on ghost(id)"},
		{"trailing tokens", "relation r card=1 pages=2 . extra"},
	}
	for _, tc := range cases {
		if _, err := ParseSchema(tc.src); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseQuery(t *testing.T) {
	cat, err := ParseSchema(demoSchema)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(
		"SELECT orders.order_id, customers.region FROM orders, customers "+
			"WHERE orders.cust_id = customers.cust_id AND customers.region = 7", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Relations) != 2 || len(q.Joins) != 1 || len(q.Selections) != 1 {
		t.Fatalf("parsed query = %+v", q)
	}
	if q.Selections[0].Value != 7 {
		t.Errorf("selection value = %d", q.Selections[0].Value)
	}
	if len(q.Projection) != 2 || q.Projection[1] != (query.ColumnRef{Relation: "customers", Column: "region"}) {
		t.Errorf("projection = %v", q.Projection)
	}
}

func TestParseQueryStar(t *testing.T) {
	cat, _ := ParseSchema(demoSchema)
	q, err := ParseQuery("select * from orders", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projection) != 0 || len(q.Relations) != 1 {
		t.Fatalf("star query = %+v", q)
	}
}

func TestParseQueryCaseInsensitive(t *testing.T) {
	cat, _ := ParseSchema(demoSchema)
	if _, err := ParseQuery("SeLeCt * FrOm orders, customers wHeRe orders.cust_id = customers.cust_id", cat); err != nil {
		t.Fatal(err)
	}
}

func TestParseQueryNegativeConstant(t *testing.T) {
	cat, _ := ParseSchema(demoSchema)
	q, err := ParseQuery("select * from customers where customers.region = -3", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Selections[0].Value != -3 {
		t.Errorf("value = %d", q.Selections[0].Value)
	}
}

func TestParseQueryErrors(t *testing.T) {
	cat, _ := ParseSchema(demoSchema)
	cases := []struct{ name, src string }{
		{"no select", "FROM orders"},
		{"no from", "SELECT *"},
		{"bad projection", "SELECT orders FROM orders"},
		{"missing dot", "SELECT * FROM orders WHERE orders = 3"},
		{"bad rhs", "SELECT * FROM orders WHERE orders.cust_id = ,"},
		{"trailing", "SELECT * FROM orders extra.junk = 3"},
		{"unknown relation", "SELECT * FROM ghosts"},
		{"unknown column", "SELECT * FROM orders WHERE orders.ghost = 1"},
		{"join outside query", "SELECT * FROM orders WHERE orders.cust_id = customers.cust_id"},
		{"lex error", "SELECT * FROM orders WHERE orders.cust_id = @"},
	}
	for _, tc := range cases {
		if _, err := ParseQuery(tc.src, cat); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// tokens drains a scanner over src.
func tokens(src string) ([]token, error) {
	s := newScanner(src)
	var toks []token
	for {
		t := s.next()
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, s.err
		}
	}
}

func TestLexerCoverage(t *testing.T) {
	toks, err := tokens("a.b = 12, (x) * # comment\nnext")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	want := []tokenKind{tokIdent, tokDot, tokIdent, tokEq, tokNumber, tokComma,
		tokLParen, tokIdent, tokRParen, tokStar, tokIdent, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// EOF is sticky.
	s := newScanner("x")
	s.next()
	if s.next().kind != tokEOF || s.next().kind != tokEOF {
		t.Error("EOF must be sticky")
	}
	// An unexpected character ends the stream with an error.
	if _, err := tokens("a ? b"); err == nil || !strings.Contains(err.Error(), "offset 2") {
		t.Errorf("unexpected character: err = %v", err)
	}
}

func TestRoundTripThroughOptimizerShapes(t *testing.T) {
	cat, err := ParseSchema(demoSchema)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(
		"SELECT * FROM orders, customers WHERE orders.cust_id = customers.cust_id", cat)
	if err != nil {
		t.Fatal(err)
	}
	// The parsed query renders back to SQL-ish text that mentions both
	// relations and the predicate.
	s := q.String()
	for _, want := range []string{"orders", "customers", "orders.cust_id = customers.cust_id"} {
		if !strings.Contains(s, want) {
			t.Errorf("round trip missing %q in %q", want, s)
		}
	}
}
