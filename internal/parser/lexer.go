// Package parser turns text into catalogs and queries: a minimal SQL-ish
// SELECT grammar for SPJ queries and a small schema DDL, so the command
// line tools (and downstream users) can feed the optimizer real input
// instead of hand-built structs.
//
// Query grammar (keywords case-insensitive):
//
//	SELECT * | rel.col [, rel.col ...]
//	FROM rel [, rel ...]
//	[WHERE pred [AND pred ...]]
//	pred := rel.col = rel.col | rel.col = <integer>
//
// Schema grammar (one statement per line; '#' comments):
//
//	relation <name> card=<n> pages=<n> [disk=<n>] [sorted=<col>]
//	column   <rel>.<col> [ndv=<n>] [width=<n>]
//	index    <name> on <rel>(<col>[,<col>...]) [clustered] [covering] [disk=<n>] [pages=<n>]
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokEq
	tokStar
	tokLParen
	tokRParen
)

type token struct {
	kind tokenKind
	text string // a substring of the source
	pos  int
}

// punct maps the one-byte tokens to their kinds.
var punct = [256]tokenKind{',': tokComma, '.': tokDot, '=': tokEq, '*': tokStar, '(': tokLParen, ')': tokRParen}

// scanner is a pull lexer: it holds the current token and produces the next
// one on demand, so scanning keeps no token list and allocates nothing. An
// unexpected character ends the stream: the scanner records the error and
// reports EOF from then on.
type scanner struct {
	src string
	pos int // where the next token's scan starts
	tok token
	err error
}

func newScanner(src string) scanner {
	s := scanner{src: src}
	s.scan()
	return s
}

// scan reads the token at s.pos into s.tok.
func (s *scanner) scan() {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		start := s.pos
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.pos++
			continue
		case c == '#':
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.pos++
			}
			continue
		case punct[c] != tokEOF:
			s.pos++
			s.tok = token{punct[c], s.src[start:s.pos], start}
		case c == '-' || (c >= '0' && c <= '9'):
			s.pos++
			for s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
				s.pos++
			}
			s.tok = token{tokNumber, s.src[start:s.pos], start}
		case isIdentStart(rune(c)):
			for s.pos < len(s.src) && isIdentPart(rune(s.src[s.pos])) {
				s.pos++
			}
			s.tok = token{tokIdent, s.src[start:s.pos], start}
		default:
			s.err = fmt.Errorf("parser: unexpected character %q at offset %d", c, start)
			s.pos = len(s.src)
			s.tok = token{tokEOF, "", start}
		}
		return
	}
	s.tok = token{tokEOF, "", s.pos}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (s *scanner) peek() token { return s.tok }

// next returns the current token and advances; EOF is sticky.
func (s *scanner) next() token {
	t := s.tok
	if t.kind != tokEOF {
		s.scan()
	}
	return t
}

// result settles a parse: an unexpected character anywhere in the input
// outranks whatever the grammar said about the tokens before it, so the
// rest of the input is scanned for one first.
func (s *scanner) result(err error) error {
	for s.tok.kind != tokEOF {
		s.scan()
	}
	if s.err != nil {
		return s.err
	}
	return err
}

// keyword consumes an identifier equal (case-insensitively) to kw.
func (s *scanner) keyword(kw string) bool {
	t := s.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		s.next()
		return true
	}
	return false
}

// expect consumes a token of the given kind or fails.
func (s *scanner) expect(k tokenKind, what string) (token, error) {
	t := s.next()
	if t.kind != k {
		return t, fmt.Errorf("parser: expected %s at offset %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

// ident consumes an identifier.
func (s *scanner) ident(what string) (string, error) {
	t, err := s.expect(tokIdent, what)
	if err != nil {
		return "", err
	}
	return t.text, nil
}
