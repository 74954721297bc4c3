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
	text string
	pos  int
}

// lexer tokenizes one input string.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex scans the whole input up front; SPJ inputs are tiny. The token slice
// is sized once: a token is at least one byte and in this grammar almost
// always followed by a separator, so len(src)/2 bounds the count for
// anything but adversarially dense input (where append still grows it).
func lex(src string) ([]token, error) {
	l := &lexer{src: src, tokens: make([]token, 0, len(src)/2+2)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ',':
			l.emit(tokComma, ",")
		case c == '.':
			l.emit(tokDot, ".")
		case c == '=':
			l.emit(tokEq, "=")
		case c == '*':
			l.emit(tokStar, "*")
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '-' || (c >= '0' && c <= '9'):
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			l.tokens = append(l.tokens, token{tokNumber, l.src[start:l.pos], start})
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.tokens = append(l.tokens, token{tokIdent, l.src[start:l.pos], start})
		default:
			return nil, fmt.Errorf("parser: unexpected character %q at offset %d", c, l.pos)
		}
	}
	l.tokens = append(l.tokens, token{tokEOF, "", l.pos})
	return l.tokens, nil
}

func (l *lexer) emit(k tokenKind, text string) {
	l.tokens = append(l.tokens, token{k, text, l.pos})
	l.pos += len(text)
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// stream is a token cursor shared by the parsers.
type stream struct {
	toks []token
	i    int
}

func newStream(src string) (*stream, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &stream{toks: toks}, nil
}

func (s *stream) peek() token { return s.toks[s.i] }

func (s *stream) next() token {
	t := s.toks[s.i]
	if t.kind != tokEOF {
		s.i++
	}
	return t
}

// keyword consumes an identifier equal (case-insensitively) to kw.
func (s *stream) keyword(kw string) bool {
	t := s.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		s.next()
		return true
	}
	return false
}

// expect consumes a token of the given kind or fails.
func (s *stream) expect(k tokenKind, what string) (token, error) {
	t := s.next()
	if t.kind != k {
		return t, fmt.Errorf("parser: expected %s at offset %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

// ident consumes an identifier.
func (s *stream) ident(what string) (string, error) {
	t, err := s.expect(tokIdent, what)
	if err != nil {
		return "", err
	}
	return t.text, nil
}
