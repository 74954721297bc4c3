package service

// negCache is the negative cache: a bounded LRU from (raw query text,
// catalog version) to the parse/resolve error that query produced. Parsing
// is the serve path's only per-request cost that admission control cannot
// shed — a client retrying an invalid query in a tight loop would otherwise
// re-lex and re-validate it on every attempt. With the negative cache the
// repeat costs one mutex'd map lookup and returns the recorded 400.
//
// The catalog version is part of the key because resolution errors are
// version-relative: a query naming a relation that does not exist yet must
// be re-parsed after a schema refresh, not rejected from stale memory.
// A nil *negCache disables negative caching (every lru method is a no-op on
// a nil receiver).
type negCache = lru[error]

// newNegCache builds a cache holding at most capacity errors; capacity < 1
// disables it (returns nil).
func newNegCache(capacity int) *negCache {
	if capacity < 1 {
		return nil
	}
	c := &negCache{}
	c.init(capacity, nil)
	return c
}

// negKey builds the lookup key. The separator cannot appear in a catalog
// version (hex fingerprint), so keys are unambiguous.
func negKey(query, version string) string { return query + "\x00" + version }
