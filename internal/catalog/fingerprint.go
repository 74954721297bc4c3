package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Fingerprint hashes everything the optimizer reads from the catalog —
// relations with their statistics and placement, column NDVs and widths,
// and index metadata — into a stable hex digest. It serves as the catalog
// *version* in plan-cache keys: any statistics refresh, schema change, or
// re-placement yields a new fingerprint and therefore invalidates cached
// plans derived from the old statistics.
//
// The digest is independent of declaration order for relations and indexes
// (both are rendered sorted by name); column order within a relation is
// part of the schema and is preserved. Column Skew is included even though
// the estimator ignores it, because the execution substrates read it.
func (c *Catalog) Fingerprint() string {
	var b strings.Builder
	names := c.RelationNames()
	sort.Strings(names)
	for _, name := range names {
		c.MustRelation(name).writeStats(&b)
	}
	idxNames := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		idxNames = append(idxNames, n)
	}
	sort.Strings(idxNames)
	for _, name := range idxNames {
		ix := c.indexes[name]
		fmt.Fprintf(&b, "idx %s on %s(%s) clustered=%t covering=%t disk=%d pages=%d\n",
			ix.Name, ix.Relation, strings.Join(ix.Columns, ","), ix.Clustered, ix.Covering, ix.Disk, ix.Pages)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// writeStats renders the relation's lines of Fingerprint: its statistics and
// placement, then each column's NDV, width and skew.
func (r *Relation) writeStats(b *strings.Builder) {
	fmt.Fprintf(b, "rel %s card=%d pages=%d disk=%d decluster=%d sorted=%s\n",
		r.Name, r.Card, r.Pages, r.Disk, r.Decluster, r.SortedBy)
	for _, col := range r.Columns {
		fmt.Fprintf(b, "col %s.%s ndv=%d width=%d skew=%g\n",
			r.Name, col.Name, col.NDV, col.Width, col.Skew)
	}
}

// StatsDigest hashes the relation's lines of Fingerprint into 16 hex digits.
// Data generated from a relation is a function of these statistics, so two
// relations of one name with equal digests hold the same rows: a shipped
// scan carries its relation's digest, and a store built from other
// statistics refuses it instead of serving another catalog's rows.
func (r *Relation) StatsDigest() string {
	var b strings.Builder
	r.writeStats(&b)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
