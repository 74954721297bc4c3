package service

import (
	"sync/atomic"

	"paropt/internal/query"
)

// textCache remembers what parsing a query text against a catalog version
// established, so a repeated template is served without lexing, parsing,
// fingerprinting or building a plan-cache key (SNIPPETS.md §1: plan once,
// reuse across iterations). It is one bounded LRU keyed by the catalog
// version and the text's mask (parser.Mask: the text with every integer
// literal replaced by '?'). A value is one of two kinds:
//
//   - a template: the query the first text with this mask parsed to, its
//     fingerprint and its plan-cache key. A later text with the mask binds
//     its own literals into a copy (parser.Bind), and only where a query is
//     read: a search or an analyze.
//   - a failure: one exact text's parse or validation error. Messages carry
//     offsets and token text, so a failure answers only the identical text.
//
// A text that is not a template (a character the grammar does not know, a
// literal outside int64) keys its failure by the raw text. A key longer than
// textKeyMax is never cached: keys and messages quote the text, and request-
// sized ones would let a few hundred entries pin gigabytes.
//
// The version leads the key because resolution is version-relative (a
// relation may exist only in a newer catalog); retireCatalog purges a
// version's entries by that prefix, which textKey ends with a separator a
// version (hex) cannot hold.
type textCache = lru[*textEntry]

const (
	textCacheCapacity = 1024
	textKeyMax        = 4 << 10
)

const (
	templateSep = 0 // version, templateSep, mask
	failureSep  = 1 // version, failureSep, raw text
)

type textEntry struct {
	q   *query.Query // nil for a failure
	fp  string
	key atomic.Pointer[placedKey]

	text string // the failed text
	err  error
}

// placedKey is a template's plan-cache key and the placement fingerprint it
// embeds; a placement install changes the one and so rebuilds the other.
type placedKey struct{ placement, key string }

func newTextCache() *textCache {
	c := &textCache{}
	c.init(textCacheCapacity, nil)
	return c
}
