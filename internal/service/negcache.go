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
type negCache = lru[error]

// negCacheCapacity is how many failed queries the negative cache remembers.
const negCacheCapacity = 256

func newNegCache() *negCache {
	c := &negCache{}
	c.init(negCacheCapacity, nil)
	return c
}

// negKey builds the lookup key. The separator cannot appear in a catalog
// version (hex fingerprint), so keys are unambiguous.
func negKey(query, version string) string { return query + "\x00" + version }
