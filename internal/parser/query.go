package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"paropt/internal/catalog"
	"paropt/internal/query"
)

// ParseQuery parses a SELECT statement into a Query and validates it
// against the catalog.
func ParseQuery(src string, cat *catalog.Catalog) (*query.Query, error) {
	s := newScanner(src)
	q, err := parseQuery(&s)
	if err = s.result(err); err != nil {
		return nil, err
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	return q, nil
}

func parseQuery(s *scanner) (*query.Query, error) {
	q := &query.Query{Name: "parsed"}

	if !s.keyword("select") {
		return nil, fmt.Errorf("parser: query must start with SELECT")
	}
	if s.peek().kind == tokStar {
		s.next()
	} else {
		for {
			col, err := parseColumnRef(s)
			if err != nil {
				return nil, err
			}
			q.Projection = append(q.Projection, col)
			if s.peek().kind != tokComma {
				break
			}
			s.next()
		}
	}

	if !s.keyword("from") {
		return nil, fmt.Errorf("parser: expected FROM at offset %d", s.peek().pos)
	}
	for {
		rel, err := s.ident("relation name")
		if err != nil {
			return nil, err
		}
		q.Relations = append(q.Relations, rel)
		if s.peek().kind != tokComma {
			break
		}
		s.next()
	}

	if s.keyword("where") {
		for {
			if err := parsePredicate(s, q); err != nil {
				return nil, err
			}
			if !s.keyword("and") {
				break
			}
		}
	}
	if t := s.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("parser: trailing input %q at offset %d", t.text, t.pos)
	}
	return q, nil
}

// Mask appends src to dst with every integer literal replaced by '?' (a
// character the grammar rejects, so no template holds one) and allocates
// nothing doing it. Two texts with one mask parse to the same
// query up to their literals — or fail alike — and since only a selection
// can hold a number in this grammar, the i-th literal is the i-th Selection
// (Bind). ok is false when src is not a template: it holds a character the
// grammar does not know or a literal outside int64, and ParseQuery says
// which.
func Mask(dst []byte, src string) (_ []byte, ok bool) {
	s := newScanner(src)
	last := 0
	for ; s.tok.kind != tokEOF; s.next() {
		if s.tok.kind != tokNumber {
			continue
		}
		if _, err := strconv.ParseInt(s.tok.text, 10, 64); err != nil {
			return dst, false
		}
		dst = append(dst, src[last:s.tok.pos]...)
		dst = append(dst, '?')
		last = s.tok.pos + len(s.tok.text)
	}
	if s.err != nil {
		return dst, false
	}
	return append(dst, src[last:]...), true
}

// Bind returns a copy of skel — a query ParseQuery built from a text with
// src's mask — whose i-th selection holds src's i-th literal. The copy shares
// skel's relation, join and projection slices, which nothing writes.
func Bind(skel *query.Query, src string) *query.Query {
	q := *skel
	q.Selections = append([]query.Selection(nil), skel.Selections...)
	s := newScanner(src)
	for i := 0; s.tok.kind != tokEOF; s.next() {
		if s.tok.kind == tokNumber {
			q.Selections[i].Value, _ = strconv.ParseInt(s.tok.text, 10, 64)
			i++
		}
	}
	return &q
}

// parseColumnRef parses rel.col.
func parseColumnRef(s *scanner) (query.ColumnRef, error) {
	rel, err := s.ident("relation name")
	if err != nil {
		return query.ColumnRef{}, err
	}
	if _, err := s.expect(tokDot, "'.'"); err != nil {
		return query.ColumnRef{}, err
	}
	col, err := s.ident("column name")
	if err != nil {
		return query.ColumnRef{}, err
	}
	return query.ColumnRef{Relation: rel, Column: col}, nil
}

// parsePredicate parses one equality predicate: a join (rel.col = rel.col)
// or a selection (rel.col = <int>).
func parsePredicate(s *scanner, q *query.Query) error {
	left, err := parseColumnRef(s)
	if err != nil {
		return err
	}
	if _, err := s.expect(tokEq, "'='"); err != nil {
		return err
	}
	switch t := s.peek(); t.kind {
	case tokNumber:
		s.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return fmt.Errorf("parser: bad integer %q at offset %d", t.text, t.pos)
		}
		q.Selections = append(q.Selections, query.Selection{Column: left, Value: v})
		return nil
	case tokIdent:
		right, err := parseColumnRef(s)
		if err != nil {
			return err
		}
		q.Joins = append(q.Joins, query.JoinPredicate{Left: left, Right: right})
		return nil
	default:
		return fmt.Errorf("parser: expected column or constant after '=' at offset %d", t.pos)
	}
}

// ParseSchema parses the schema DDL (see the package comment) into a fresh
// catalog. Column statements must follow their relation statement; an
// omitted column list gives the relation a single "id" key column.
func ParseSchema(src string) (*catalog.Catalog, error) {
	cat := catalog.New()
	type pendingRel struct {
		rel  catalog.Relation
		cols []catalog.Column
	}
	var rels []*pendingRel
	byName := map[string]*pendingRel{}
	type pendingIdx struct{ idx catalog.Index }
	var idxs []pendingIdx

	// statement parses one line; ParseSchema numbers its error.
	statement := func(s *scanner) error {
		switch {
		case s.keyword("relation"):
			name, err := s.ident("relation name")
			if err != nil {
				return err
			}
			pr := &pendingRel{rel: catalog.Relation{Name: name}}
			opts, err := parseOptions(s)
			if err != nil {
				return err
			}
			pr.rel.Card = opts.num("card", 1)
			pr.rel.Pages = opts.num("pages", 1)
			pr.rel.Disk = int(opts.num("disk", 0))
			pr.rel.SortedBy = opts.str("sorted")
			rels = append(rels, pr)
			byName[name] = pr

		case s.keyword("column"):
			col, err := parseColumnRef(s)
			if err != nil {
				return err
			}
			pr, ok := byName[col.Relation]
			if !ok {
				return fmt.Errorf("column for undeclared relation %s", col.Relation)
			}
			opts, err := parseOptions(s)
			if err != nil {
				return err
			}
			pr.cols = append(pr.cols, catalog.Column{
				Name:  col.Column,
				NDV:   opts.num("ndv", pr.rel.Card),
				Width: int(opts.num("width", 8)),
			})

		case s.keyword("index"):
			name, err := s.ident("index name")
			if err != nil {
				return err
			}
			if !s.keyword("on") {
				return errors.New("expected ON")
			}
			rel, err := s.ident("relation name")
			if err != nil {
				return err
			}
			if _, err := s.expect(tokLParen, "'('"); err != nil {
				return err
			}
			var cols []string
			for {
				c, err := s.ident("column name")
				if err != nil {
					return err
				}
				cols = append(cols, c)
				if s.peek().kind != tokComma {
					break
				}
				s.next()
			}
			if _, err := s.expect(tokRParen, "')'"); err != nil {
				return err
			}
			idx := catalog.Index{Name: name, Relation: rel, Columns: cols}
			for {
				if s.keyword("clustered") {
					idx.Clustered = true
					continue
				}
				if s.keyword("covering") {
					idx.Covering = true
					continue
				}
				break
			}
			opts, err := parseOptions(s)
			if err != nil {
				return err
			}
			idx.Disk = int(opts.num("disk", 0))
			idx.Pages = opts.num("pages", 0)
			idxs = append(idxs, pendingIdx{idx})

		default:
			return errors.New("expected relation, column or index")
		}
		return nil
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s := newScanner(line)
		if err := s.result(statement(&s)); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}

	for _, pr := range rels {
		if len(pr.cols) == 0 {
			pr.cols = []catalog.Column{{Name: "id", NDV: pr.rel.Card, Width: 8}}
		}
		pr.rel.Columns = pr.cols
		if _, err := cat.AddRelation(pr.rel); err != nil {
			return nil, err
		}
	}
	for _, pi := range idxs {
		if _, err := cat.AddIndex(pi.idx); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// options is a parsed key=value list.
type options map[string]string

func (o options) num(key string, def int64) int64 {
	v, ok := o[key]
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return def
	}
	return n
}

func (o options) str(key string) string { return o[key] }

// parseOptions reads trailing key=value pairs until end of statement.
func parseOptions(s *scanner) (options, error) {
	opts := options{}
	for s.peek().kind == tokIdent {
		key, _ := s.ident("option name")
		if _, err := s.expect(tokEq, "'=' after option "+key); err != nil {
			return nil, err
		}
		t := s.next()
		if t.kind != tokNumber && t.kind != tokIdent {
			return nil, fmt.Errorf("parser: bad value for option %s at offset %d", key, t.pos)
		}
		opts[strings.ToLower(key)] = t.text
	}
	if t := s.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("parser: trailing input %q at offset %d", t.text, t.pos)
	}
	return opts, nil
}
