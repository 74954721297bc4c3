package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"paropt/internal/placement"
)

// OptimizeRequest bodies are decoded by hand from a pooled buffer: a
// json.Decoder per request cost more than the rest of a cache hit's parsing.
// The decoder accepts, rejects and produces exactly what a json.Decoder with
// DisallowUnknownFields does — FuzzDecodeOptimizeRequest is the differential
// — except that anything but whitespace after the object is an error, as on
// every JSON route (decodeJSON).

var (
	errTrailingData = errors.New("trailing data after the JSON value")
	errBodyTooLarge = errors.New("http: request body too large")
)

// pooledBodyMax is the largest body buffer returned to the pool. A larger
// body is read into a buffer of its own, which the decoded strings may alias.
const pooledBodyMax = 64 << 10

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// decodeOptimize reads and decodes an OptimizeRequest body, answering 400
// itself when it cannot.
func decodeOptimize(w http.ResponseWriter, r *http.Request, req *OptimizeRequest) bool {
	bp := bodyPool.Get().(*[]byte)
	body, err := readBody(r, (*bp)[:0])
	own := cap(body) > pooledBodyMax
	if err == nil {
		err = decodeOptimizeRequest(body, req, own)
	}
	if !own {
		*bp = body[:0]
	}
	bodyPool.Put(bp)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// readBody appends r's body to buf, failing past placement.MaxBodyBytes. A declared
// length beyond buf's capacity gets a buffer of that size plus the byte that
// detects a longer body, so a large body is read in one allocation.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	switch n := r.ContentLength; {
	case n > placement.MaxBodyBytes:
		return buf, errBodyTooLarge
	case n > int64(cap(buf)):
		buf = make([]byte, 0, n+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > placement.MaxBodyBytes:
			return buf, errBodyTooLarge
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		}
	}
}

// reqDecoder is a cursor over one body. own means the body is this
// request's alone and never reused, so a string that is most of it may
// alias it instead of being copied.
type reqDecoder struct {
	b   []byte
	i   int
	own bool
}

func decodeOptimizeRequest(body []byte, req *OptimizeRequest, own bool) error {
	d := reqDecoder{b: body, own: own}
	if err := d.request(req); err != nil {
		return err
	}
	if d.space(); d.i != len(d.b) {
		return errTrailingData
	}
	return nil
}

func (d *reqDecoder) fail() error { return fmt.Errorf("invalid JSON at offset %d", d.i) }

// request decodes an object, or null, which leaves req as it is.
func (d *reqDecoder) request(req *OptimizeRequest) error {
	if d.space(); d.literal("null") {
		return nil
	}
	if !d.byte('{') {
		return d.fail()
	}
	if d.space(); d.byte('}') {
		return nil
	}
	for {
		d.space()
		start := d.i
		if !d.str() {
			return d.fail()
		}
		key := d.b[start:d.i]
		if d.space(); !d.byte(':') {
			return d.fail()
		}
		d.space()
		if err := d.value(req, key); err != nil {
			return err
		}
		if d.space(); d.byte('}') {
			return nil
		}
		if !d.byte(',') {
			return d.fail()
		}
	}
}

// requestFields are OptimizeRequest's JSON names, in declaration order.
var requestFields = [...]string{
	"query", "schema", "catalog", "k", "costBenefit",
	"trace", "why", "analyze", "analyzeParallel", "distributed",
}

// value decodes the value at the cursor into the field the quoted key names.
// The last of duplicate keys wins and null leaves a field as it is.
func (d *reqDecoder) value(req *OptimizeRequest, key []byte) error {
	f := field(key)
	if f < 0 {
		return fmt.Errorf("json: unknown field %s", key)
	}
	if d.literal("null") {
		return nil
	}
	ok := true
	switch f {
	case 0:
		req.Query, ok = d.string()
	case 1:
		req.Schema, ok = d.string()
	case 2:
		req.Catalog, ok = d.string()
	case 3:
		req.K, ok = d.float()
	case 4:
		req.CostBenefit, ok = d.float()
	case 5:
		req.Trace, ok = d.bool()
	case 6:
		req.Why, ok = d.bool()
	case 7:
		req.Analyze, ok = d.bool()
	case 8:
		req.AnalyzeParallel, ok = d.int()
	case 9:
		req.Distributed, ok = d.bool()
	}
	if !ok {
		return fmt.Errorf("field %s: bad value at offset %d", key, d.i)
	}
	return nil
}

// field is the index in requestFields of the name a quoted key matches, or
// -1.
func field(quoted []byte) int {
	key := quoted[1 : len(quoted)-1]
	if !plainString(key) {
		var s string
		if json.Unmarshal(quoted, &s) != nil {
			return -1
		}
		key = []byte(s)
	}
	for f, name := range requestFields {
		if foldEqual(key, name) {
			return f
		}
	}
	return -1
}

// foldEqual matches a key to a field name as encoding/json does: equal once
// every rune is folded to the smallest rune of its case-folding class, so
// "K" (the Kelvin sign) names "k" and "ſchema" names "schema".
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := utf8.DecodeRune(key[i:])
		i += n
		if j == len(name) || foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func foldRune(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - 'a' + 'A'
	}
	for r >= utf8.RuneSelf {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
	return r
}

// plainString reports whether the bytes between a string's quotes are their
// own decoding: no escape and valid UTF-8 (encoding/json replaces invalid
// bytes with U+FFFD).
func plainString(raw []byte) bool {
	return bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw)
}

// string decodes a string: copied out of the body, aliasing it when the body
// is the request's own and the string most of it, or — with an escape or
// invalid UTF-8 — through json.Unmarshal of the one token.
func (d *reqDecoder) string() (string, bool) {
	start := d.i
	if !d.str() {
		return "", false
	}
	raw := d.b[start+1 : d.i-1]
	switch {
	case !plainString(raw):
		var s string
		return s, json.Unmarshal(d.b[start:d.i], &s) == nil
	case d.own && 2*len(raw) >= len(d.b):
		return unsafe.String(unsafe.SliceData(raw), len(raw)), true
	}
	return string(raw), true
}

// str consumes a string token, checking its grammar: no raw control
// character and only the escapes JSON defines.
func (d *reqDecoder) str() bool {
	if !d.byte('"') {
		return false
	}
	for d.i < len(d.b) {
		c := d.b[d.i]
		d.i++
		switch {
		case c == '"':
			return true
		case c < 0x20 || c == '\\' && d.i == len(d.b):
			return false
		case c == '\\' && d.b[d.i] == 'u':
			if len(d.b)-d.i < 5 {
				return false
			}
			for _, h := range d.b[d.i+1 : d.i+5] {
				if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
					return false
				}
			}
			d.i += 5
		case c == '\\':
			if strings.IndexByte(`"\/bfnrt`, d.b[d.i]) < 0 {
				return false
			}
			d.i++
		}
	}
	return false
}

func (d *reqDecoder) float() (float64, bool) {
	num := d.number()
	v, err := strconv.ParseFloat(string(num), 64)
	return v, num != nil && err == nil
}

func (d *reqDecoder) int() (int, bool) {
	num := d.number()
	v, err := strconv.ParseInt(string(num), 10, 64)
	return int(v), num != nil && err == nil
}

func (d *reqDecoder) bool() (bool, bool) {
	if d.literal("true") {
		return true, true
	}
	return false, d.literal("false")
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or
// returns nil.
func (d *reqDecoder) number() []byte {
	start := d.i
	d.byte('-')
	if !d.byte('0') && d.digits() == 0 {
		return nil
	}
	if d.byte('.') && d.digits() == 0 {
		return nil
	}
	if d.byte('e') || d.byte('E') {
		if !d.byte('+') {
			d.byte('-')
		}
		if d.digits() == 0 {
			return nil
		}
	}
	return d.b[start:d.i]
}

func (d *reqDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

func (d *reqDecoder) space() {
	for d.i < len(d.b) && strings.IndexByte(" \t\n\r", d.b[d.i]) >= 0 {
		d.i++
	}
}

// byte consumes c if it is next.
func (d *reqDecoder) byte(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes lit if it is next.
func (d *reqDecoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}
